//! End-to-end cluster smoke: a 3-node hash-partitioned cluster driven
//! through [`ClusterClient`] agrees exactly with a single-profile
//! oracle — before and after a live `MIGRATE` — and a stale-map client
//! converges through the `ERR moved` retry path.

use std::net::TcpListener;
use std::path::PathBuf;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::{SProfile, Tuple};
use sprofile_cluster::ClusterClient;
use sprofile_server::{
    BackendKind, Client, ClientError, ClusterConfig, DurabilityConfig, Server, ServerConfig,
};

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

/// A write acknowledged before a `MIGRATE` reaches the new owner, at
/// the library's default `flush_every`: a cluster node applies each
/// write before its `OK`, and the map flip waits for writes in flight.
#[test]
fn a_write_acked_before_a_migrate_reaches_the_new_owner() {
    let base = temp_base("acked");
    let addrs = reserve_addrs(2);
    let servers: Vec<Server> = (0..2u32)
        .map(|i| {
            start_node(
                32,
                4,
                i,
                &addrs,
                base.join(format!("node{i}")),
                BackendKind::Sharded { shards: 2 },
            )
        })
        .collect();
    // Object 4 lies in slice 0, which node 0 owns at version 1.
    let mut writer = Client::connect(&addrs[0]).expect("writer");
    writer.add(4).expect("add");
    let mut admin = Client::connect(&addrs[0]).expect("admin");
    assert_eq!(admin.migrate(0, 1).expect("migrate"), 2);
    admin.quit().expect("quit admin");
    writer.quit().expect("quit writer");

    let mut router = ClusterClient::connect(&addrs[1]).expect("router");
    assert_eq!(router.map().owners[0], 1, "slice 0 moved to node 1");
    assert_eq!(router.freq(4).expect("freq"), 1);
    router.close().expect("close router");
    for s in servers {
        s.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Node round trips the router has made so far, over every node.
fn node_calls(router: &ClusterClient) -> u64 {
    router.node_latency_us().iter().map(|h| h.count()).sum()
}

#[test]
fn median_takes_one_call_per_node_when_node_medians_agree() {
    let m = 64u32;
    let slices = 4u32;
    let base = temp_base("median");
    let addrs = reserve_addrs(2);
    let servers: Vec<Server> = (0..2u32)
        .map(|i| {
            start_node(
                m,
                slices,
                i,
                &addrs,
                base.join(format!("node{i}")),
                BackendKind::Sharded { shards: 2 },
            )
        })
        .collect();
    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    let mut oracle = SProfile::new(m);
    // Adds `adds(x)` to every object `x`, through the router and the oracle.
    let apply = |router: &mut ClusterClient, oracle: &mut SProfile, adds: &dyn Fn(u32) -> usize| {
        let tuples: Vec<Tuple> = (0..m)
            .flat_map(|x| std::iter::repeat_n(Tuple::add(x), adds(x)))
            .collect();
        assert_eq!(router.batch(&tuples).expect("batch"), tuples.len() as u64);
        oracle.apply_batch(&tuples);
    };
    let node_median = |i: usize| {
        let mut c = Client::connect(&addrs[i]).expect("node");
        let median = c.median().expect("node median");
        c.quit().expect("quit");
        median
    };

    // Every object at frequency 3: both node medians are 3, so the
    // bracket is one value and no CAL round is needed.
    apply(&mut router, &mut oracle, &|_| 3);
    assert_eq!(node_median(0), node_median(1));
    let before = node_calls(&router);
    assert_eq!(router.median().expect("median"), oracle.median());
    assert_eq!(node_calls(&router) - before, 2, "one MEDIAN per node");

    // Skewed split: node 0 owns the even ids (slices 0 and 2) and node
    // 1 the odd ones. Even x climbs to 3 + x/2, odd x to 19 + x/2, so
    // the node medians are 18 and 34 and the global one (26) lies
    // strictly between them.
    apply(&mut router, &mut oracle, &|x| {
        (x / 2 + if x % 2 == 1 { 16 } else { 0 }) as usize
    });
    assert_eq!((node_median(0), node_median(1)), (Some(18), Some(34)));
    let before = node_calls(&router);
    assert_eq!(router.median().expect("median"), oracle.median());
    assert_eq!(oracle.median(), Some(26));
    assert!(
        node_calls(&router) - before > 2,
        "CAL rounds bisected the bracket"
    );

    router.close().expect("close router");
    for s in servers {
        s.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A routed batch with a tuple outside the universe is refused whole
/// before any frame is sent, as a node refuses such a frame, and every
/// node's connection stays paired with its requests.
#[test]
fn a_batch_with_an_object_outside_the_universe_is_refused_whole() {
    let m = 64u32;
    let base = temp_base("universe");
    let addrs = reserve_addrs(2);
    let servers: Vec<Server> = (0..2u32)
        .map(|i| {
            start_node(
                m,
                4,
                i,
                &addrs,
                base.join(format!("node{i}")),
                BackendKind::Sharded { shards: 2 },
            )
        })
        .collect();
    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    // Object 64 would route to node 0 and object 1 to node 1.
    match router.batch(&[Tuple::add(64), Tuple::add(1), Tuple::add(1)]) {
        Err(ClientError::Server(msg)) => {
            assert_eq!(msg, "tuple 1: object 64 outside universe [0, 64)")
        }
        other => panic!("a batch outside the universe answered {other:?}"),
    }
    assert_eq!(router.freq(1).expect("freq"), 0, "nothing was applied");
    assert_eq!(router.batch(&[Tuple::add(1)]).expect("batch"), 1);
    assert_eq!(router.mode().expect("mode"), Some((1, 1)));

    router.close().expect("close router");
    for s in servers {
        s.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}
