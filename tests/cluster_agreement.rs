//! Cluster agreement, property-style (the PR's acceptance criterion):
//! a 3×(primary+replica) hash-partitioned cluster driven with random
//! ops through the routing client must agree **exactly** with a
//! single-profile oracle — across a mid-run slice rebalance and a
//! primary kill + replica promotion — with no acknowledged write lost.
//! Primaries run synchronous quorum commit, so an `OK` means the write
//! reached the partition's replica before the client saw it; the final
//! oracle equality is therefore an RPO = 0 check, not just a liveness
//! check.
//!
//! A second test cuts one node off with the chaos proxy mid-run (a
//! network partition, not a crash): writes to the dark partition fail
//! visibly, writes to the healthy partitions keep flowing, and after
//! the link heals a fresh router converges with the oracle.

use std::net::TcpListener;
use std::path::PathBuf;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::{SProfile, Tuple};
use sprofile_cluster::{ChaosProxy, ClusterClient};
use sprofile_persist::PartitionMap;
use sprofile_server::{
    BackendKind, Client, ClientError, ClusterConfig, DurabilityConfig, Server, ServerConfig,
    SyncCommit,
};

fn temp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sprofile-cluster-agree-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

struct NodeConfig<'a> {
    m: u32,
    slices: u32,
    node: u32,
    addrs: &'a [String],
    dir: PathBuf,
    backend: BackendKind,
}

fn start_primary(cfg: NodeConfig<'_>) -> Server {
    Server::start(
        ServerConfig {
            m: cfg.m,
            backend: cfg.backend,
            workers: 2,
            flush_every: 1,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(DurabilityConfig::new(cfg.dir)),
            sync_commit: SyncCommit::Quorum,
            sync_commit_timeout: std::time::Duration::from_secs(10),
            cluster: Some(ClusterConfig {
                slices: cfg.slices,
                node: cfg.node,
                nodes: cfg.addrs.to_vec(),
            }),
            ..ServerConfig::default()
        },
        &cfg.addrs[cfg.node as usize],
    )
    .expect("start cluster primary")
}

fn start_replica(cfg: NodeConfig<'_>, listen: &str, primary: &str) -> Server {
    Server::start(
        ServerConfig {
            m: cfg.m,
            backend: cfg.backend,
            workers: 2,
            flush_every: 1,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(DurabilityConfig::new(cfg.dir)),
            replica_of: Some(primary.to_string()),
            cluster: Some(ClusterConfig {
                slices: cfg.slices,
                node: cfg.node,
                nodes: cfg.addrs.to_vec(),
            }),
            ..ServerConfig::default()
        },
        listen,
    )
    .expect("start cluster replica")
}

fn drive(rng: &mut StdRng, router: &mut ClusterClient, oracle: &mut SProfile, m: u32, ops: usize) {
    let mut sent = 0;
    while sent < ops {
        let chunk = rng.gen_range(1usize..=24).min(ops - sent);
        let tuples: Vec<Tuple> = (0..chunk)
            .map(|_| Tuple {
                object: rng.gen_range(0..m),
                is_add: rng.gen_bool(0.7),
            })
            .collect();
        let acked = router.batch(&tuples).expect("routed batch");
        assert_eq!(acked, chunk as u64);
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
    for k in [1u32, 4, 10, m] {
        assert_eq!(
            router.top_k(k).expect("topk"),
            oracle.top_k(k),
            "{ctx}: top_k({k})"
        );
    }
}

#[test]
fn random_ops_with_rebalance_and_failover_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC1A5_7E12);
    let m: u32 = rng.gen_range(48..128);
    let slices = 9u32;
    let base = temp_base("failover");
    let primary_addrs = reserve_addrs(3);
    let replica_addrs = reserve_addrs(3);
    let kinds = [
        BackendKind::Sharded { shards: 2 },
        BackendKind::Sharded { shards: 1 },
        BackendKind::Sharded { shards: 3 },
    ];
    let node_cfg = |i: u32, role: &str| NodeConfig {
        m,
        slices,
        node: i,
        addrs: &primary_addrs,
        dir: base.join(format!("{role}{i}")),
        backend: kinds[i as usize],
    };
    let mut primaries: Vec<Server> = (0..3u32).map(|i| start_primary(node_cfg(i, "p"))).collect();
    let replicas: Vec<Server> = (0..3u32)
        .map(|i| {
            start_replica(
                node_cfg(i, "r"),
                &replica_addrs[i as usize],
                &primary_addrs[i as usize],
            )
        })
        .collect();

    let mut router = ClusterClient::connect(&primary_addrs[0]).expect("router");
    let mut oracle = SProfile::new(m);

    // Phase 1: plain multi-primary traffic.
    drive(&mut rng, &mut router, &mut oracle, m, 300);
    assert_agrees(&mut router, &oracle, m, "phase 1");

    // Mid-run rebalance: a random slice leaves its round-robin owner.
    let slice = rng.gen_range(0..slices);
    let owner = slice % 3;
    let target = (owner + 1 + rng.gen_range(0..2u32)) % 3;
    let mut admin = Client::connect(&primary_addrs[owner as usize]).expect("admin");
    assert_eq!(admin.migrate(slice, target).expect("migrate"), 2);
    admin.quit().expect("quit");

    // Phase 2: the router's map is stale, so this exercises the
    // `ERR moved` retry path under synchronous commit.
    drive(&mut rng, &mut router, &mut oracle, m, 300);
    assert_agrees(&mut router, &oracle, m, "phase 2 (post-rebalance)");

    // Failover: crash-stop primary 1 (no drain, no checkpoint). Quorum
    // commit guarantees its replica holds every acked write.
    primaries.remove(1).kill();
    let mut rc = Client::connect(&replica_addrs[1]).expect("replica admin");
    let (_, epoch) = rc.promote().expect("promote");
    assert_eq!(epoch, 2, "promotion bumps the replication generation");

    // Re-point map slot 1 at the promoted replica and push the new map
    // to every live node (the promoted one included).
    router.refresh_map().expect("refresh");
    let mut failover_map = router.map().clone();
    failover_map.version += 1;
    failover_map.nodes[1] = replica_addrs[1].clone();
    push_map(&failover_map);
    rc.quit().expect("quit");
    router.install_map(failover_map).expect("install");

    // Phase 3: traffic spans the survivors and the promoted replica.
    drive(&mut rng, &mut router, &mut oracle, m, 300);
    assert_agrees(&mut router, &oracle, m, "phase 3 (post-failover)");

    router.close().expect("close");
    for p in primaries {
        p.shutdown();
    }
    for r in replicas {
        r.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Pushes `map` to every address it names, skipping unreachable ones
/// (the killed primary's slot now names the promoted replica).
fn push_map(map: &PartitionMap) {
    for addr in &map.nodes {
        let Ok(mut c) = Client::connect(addr) else {
            continue;
        };
        c.mapset(map).expect("mapset");
        c.quit().expect("quit");
    }
}

/// A refusal other than `moved` leaves every other node's connection
/// paired. Map slot 0 names a read-only replica, so a batch over both
/// nodes is refused by node 0, whose reply is read first, while node 1
/// applies its frame; node 1's next acks are its own.
#[test]
fn a_refused_frame_leaves_the_other_nodes_connection_paired() {
    let m = 64u32;
    let base = temp_base("refused");
    let addrs = reserve_addrs(2);
    let replica_addr = reserve_addrs(1).remove(0);
    let node_cfg = |node: u32, role: &str| NodeConfig {
        m,
        slices: 4,
        node,
        addrs: &addrs,
        dir: base.join(format!("{role}{node}")),
        backend: BackendKind::Sharded { shards: 2 },
    };
    let primaries: Vec<Server> = (0..2u32).map(|i| start_primary(node_cfg(i, "p"))).collect();
    let replica = start_replica(node_cfg(0, "r"), &replica_addr, &addrs[0]);

    let mut router = ClusterClient::connect(&addrs[1]).expect("router");
    let mut map = router.map().clone();
    map.version += 1;
    map.nodes[0] = replica_addr.clone();
    router.install_map(map).expect("install");

    // Node 0 owns the even ids and node 1 the odd ones: frames of two
    // and three tuples, so a stale ack cannot match by accident.
    let spanning = [0, 2, 1, 3, 5].map(Tuple::add);
    match router.batch(&spanning) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "readonly"),
        other => panic!("a batch into a replica answered {other:?}"),
    }
    assert_eq!(router.batch(&[7, 9].map(Tuple::add)).expect("batch"), 2);
    assert_eq!(router.freq(1).expect("freq"), 1, "node 1 applied its frame");
    assert_eq!(router.mode().expect("mode"), Some((1, 1)));

    router.close().expect("close");
    replica.shutdown();
    for p in primaries {
        p.shutdown();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_trace_id_is_recoverable_from_every_node_it_crossed() {
    // The observability acceptance check: tag one routing client with a
    // trace id, drive writes and a scatter-gather query through it, and
    // recover that id from the log ring of *every* node — the events of
    // one logical request correlate across the whole cluster.
    let m = 96u32;
    let slices = 3u32;
    let addrs = reserve_addrs(3);
    let servers: Vec<Server> = (0..3u32)
        .map(|node| {
            Server::start(
                ServerConfig {
                    m,
                    backend: BackendKind::Sharded { shards: 2 },
                    workers: 2,
                    flush_every: 1,
                    snapshot_dir: std::env::temp_dir(),
                    cluster: Some(ClusterConfig {
                        slices,
                        node,
                        nodes: addrs.clone(),
                    }),
                    ..ServerConfig::default()
                },
                &addrs[node as usize],
            )
            .expect("start trace-test node")
        })
        .collect();

    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    const TRACE: u64 = 48879;
    router.trace(TRACE).expect("tag the router");
    // One write per object covers every slice (so every node applies
    // traced writes); MODE scatter-gathers reads across all of them.
    let tuples: Vec<Tuple> = (0..m)
        .map(|object| Tuple {
            object,
            is_add: true,
        })
        .collect();
    assert_eq!(router.batch(&tuples).expect("traced batch"), m as u64);
    assert!(router.mode().expect("traced mode").is_some());

    for (i, addr) in addrs.iter().enumerate() {
        let mut admin = Client::connect(addr).expect("admin");
        let tail = admin.logtail(512).expect("logtail");
        assert!(
            tail.contains("trace=48879"),
            "node {i}'s ring is missing the trace id:\n{tail}"
        );
        admin.quit().expect("quit");
    }

    router.close().expect("close");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn a_network_split_fails_dark_writes_and_heals_clean() {
    let mut rng = StdRng::seed_from_u64(0x5117);
    let m = 64u32;
    let slices = 4u32;
    let base = temp_base("split");
    // Node 1 is only reachable through the chaos proxy: reserve its
    // real listen address, then put the proxy's address in the map.
    let addr0 = reserve_addrs(1).remove(0);
    let upstream1 = reserve_addrs(1).remove(0);
    let proxy = ChaosProxy::start(&upstream1).expect("proxy");
    let addrs = vec![addr0, proxy.addr().to_string()];

    let start = |node: u32, listen: &str| {
        Server::start(
            ServerConfig {
                m,
                backend: BackendKind::Sharded { shards: 2 },
                workers: 2,
                flush_every: 1,
                snapshot_dir: std::env::temp_dir(),
                wal: Some(DurabilityConfig::new(base.join(format!("node{node}")))),
                cluster: Some(ClusterConfig {
                    slices,
                    node,
                    nodes: addrs.clone(),
                }),
                ..ServerConfig::default()
            },
            listen,
        )
        .expect("start split-test node")
    };
    let node0 = start(0, &addrs[0]);
    let node1 = start(1, &upstream1);

    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    let mut oracle = SProfile::new(m);
    drive(&mut rng, &mut router, &mut oracle, m, 200);

    // Partition node 1 and let the established relays die — after
    // that, no byte can reach it, so a failed write is *known* to be
    // unapplied and the oracle bookkeeping stays exact.
    proxy.split();
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Writes into the dark partition fail loudly…
    let dark = (0..m)
        .find(|&x| router.map().owner_of(x) == 1)
        .expect("node 1 owns something");
    let mut dark_failures = 0;
    for _ in 0..3 {
        if router
            .batch(&[Tuple {
                object: dark,
                is_add: true,
            }])
            .is_err()
        {
            dark_failures += 1;
        }
    }
    assert!(dark_failures > 0, "the split never bit");

    // …while healthy partitions keep accepting.
    for _ in 0..120 {
        let object = loop {
            let x = rng.gen_range(0..m);
            if router.map().owner_of(x) == 0 {
                break x;
            }
        };
        let t = Tuple {
            object,
            is_add: rng.gen_bool(0.7),
        };
        assert_eq!(router.batch(&[t]).expect("healthy write during split"), 1);
        oracle.apply_batch(&[t]);
    }

    // Heal and reconnect (the proxy kills established relays for good —
    // survivors of a real partition redial too).
    proxy.heal();
    let mut router = ClusterClient::connect(&addrs[0]).expect("redial");
    drive(&mut rng, &mut router, &mut oracle, m, 200);
    assert_agrees(&mut router, &oracle, m, "post-heal");

    router.close().expect("close");
    node0.shutdown();
    node1.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// The split above with the dark node in map slot 0, so every round
/// reads the dark node's failure first: the healthy node's replies are
/// still read, and its next acks are its own.
#[test]
fn a_split_of_node_zero_leaves_the_healthy_node_paired() {
    let mut rng = StdRng::seed_from_u64(0x5118);
    let m = 64u32;
    let slices = 4u32;
    let base = temp_base("split0");
    // Node 0 is only reachable through the chaos proxy: reserve its
    // real listen address, then put the proxy's address in the map.
    let upstream0 = reserve_addrs(1).remove(0);
    let addr1 = reserve_addrs(1).remove(0);
    let proxy = ChaosProxy::start(&upstream0).expect("proxy");
    let addrs = vec![proxy.addr().to_string(), addr1];

    let start = |node: u32, listen: &str| {
        Server::start(
            ServerConfig {
                m,
                backend: BackendKind::Sharded { shards: 2 },
                workers: 2,
                flush_every: 1,
                snapshot_dir: std::env::temp_dir(),
                wal: Some(DurabilityConfig::new(base.join(format!("node{node}")))),
                cluster: Some(ClusterConfig {
                    slices,
                    node,
                    nodes: addrs.clone(),
                }),
                ..ServerConfig::default()
            },
            listen,
        )
        .expect("start split-test node")
    };
    let node0 = start(0, &upstream0);
    let node1 = start(1, &addrs[1]);

    let mut router = ClusterClient::connect(&addrs[1]).expect("router");
    let mut oracle = SProfile::new(m);
    drive(&mut rng, &mut router, &mut oracle, m, 200);

    proxy.split();
    std::thread::sleep(std::time::Duration::from_millis(100));

    assert!(router.mode().is_err(), "MODE needs the dark node");
    let owned = |node: u32| -> Vec<u32> {
        (0..m)
            .filter(|&x| router.map().owner_of(x) == node)
            .collect()
    };
    let (dark, healthy) = (owned(0), owned(1));
    // A batch over both nodes fails on the dark one, and the healthy one
    // applies its frame.
    let spanning = [dark[0], dark[1], healthy[0], healthy[1], healthy[2]].map(Tuple::add);
    assert!(router.batch(&spanning).is_err(), "the split never bit");
    oracle.apply_batch(&spanning[2..]);

    // Frames of two to four tuples, so a stale ack cannot match by
    // accident.
    for i in 0..60 {
        let frame: Vec<Tuple> = (0..2 + i % 3)
            .map(|_| Tuple {
                object: healthy[rng.gen_range(0..healthy.len())],
                is_add: rng.gen_bool(0.7),
            })
            .collect();
        assert_eq!(
            router.batch(&frame).expect("healthy write during split"),
            frame.len() as u64
        );
        oracle.apply_batch(&frame);
    }

    proxy.heal();
    let mut router = ClusterClient::connect(&addrs[1]).expect("redial");
    drive(&mut rng, &mut router, &mut oracle, m, 200);
    assert_agrees(&mut router, &oracle, m, "post-heal");

    router.close().expect("close");
    node0.shutdown();
    node1.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
