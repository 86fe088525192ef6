//! # sprofile-server — a TCP ingest/query front end for S-Profile
//!
//! The paper motivates S-Profile as the core of a central service
//! profiling a firehose of like/follow events; this crate puts that
//! service on a socket. A [`Server`] binds a TCP listener and serves a
//! newline-delimited text protocol (see [`protocol`]) over one
//! [`sprofile_concurrent::ShardedProfile`] — one mutex per universe
//! shard, with the shard count set by [`ServerConfig::backend`]. An
//! update has been applied when its call returns, so every read sees
//! every write flushed before it.
//!
//! Everything is std-only (the offline build has no async runtime): a
//! **readiness-driven event loop** of a few worker threads multiplexes
//! non-blocking connection state machines over the `polling` shim,
//! sheds connections past `--max-conns` with a typed `ERR overloaded`,
//! **per-connection write batching** turns single `ADD`/`RM` requests
//! into large `apply_batch` calls, and **graceful shutdown** drains
//! every buffered batch into the profile before the server stops. Clients
//! start in the newline-delimited text protocol and may upgrade to the
//! length-prefixed binary protocol (see [`bin_proto`]) with `BIN`.
//!
//! A server running with a WAL ([`ServerConfig::wal`]) is durable *and*
//! a replication **primary**: `REPLICATE <lsn>` connections stream its
//! log (via `sprofile-replicate`). With
//! [`ServerConfig::replica_of`] it instead runs as a read-only
//! **replica** of another server, applying the shipped log through its
//! own WAL and backend until `PROMOTE` flips it writable — see the
//! [`protocol`] docs for the replica-visible behaviour and the
//! `repl_*` `STATS` fields.
//!
//! ```no_run
//! use sprofile_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.add(42).unwrap();
//! client.add(42).unwrap();
//! assert_eq!(client.freq(42).unwrap(), 2);
//! client.shutdown_server().unwrap();
//! server.wait();
//! ```
//!
//! [`Client`] is the canonical protocol speaker and [`loadgen`] drives
//! many of them concurrently — both are reused by the `sprofile serve` /
//! `sprofile loadgen` CLI subcommands and the benchmark that records
//! `BENCH_server.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod backend;
pub mod bin_proto;
pub mod client;
mod cluster;
mod conn;
mod durability;
mod failover;
pub mod loadgen;
mod metrics;
mod prom;
pub mod protocol;
mod repl;
mod server;

pub use backend::BackendKind;
pub use client::{Client, ClientError, ClientResult};
pub use cluster::ClusterConfig;
pub use durability::DurabilityConfig;
pub use loadgen::{LatencySummary, LoadgenConfig, LoadgenReport};
pub use metrics::{Counter, Metrics};
pub use protocol::WireProto;
pub use server::{FailoverConfig, Server, ServerConfig, SyncCommit};
pub use sprofile_obs::{Level, LogFormat, LogSink, Obs, ObsConfig};
pub use sprofile_persist::SyncPolicy;
pub use sprofile_replicate::ApplierStats;

#[cfg(test)]
mod crate_tests {
    use super::*;
    use sprofile::{SProfile, Tuple};

    fn start(kind: BackendKind, m: u32) -> Server {
        Server::start(
            ServerConfig {
                m,
                backend: kind,
                workers: 3,
                flush_every: 8,
                // Wire SNAPSHOT paths are relative to this directory.
                snapshot_dir: std::env::temp_dir(),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind ephemeral port")
    }

    #[test]
    fn end_to_end_singles_and_batches() {
        for kind in [
            BackendKind::Sharded { shards: 4 },
            BackendKind::Sharded { shards: 1 },
        ] {
            let server = start(kind, 100);
            let mut c = Client::connect(server.local_addr()).unwrap();
            c.add(7).unwrap();
            c.add(7).unwrap();
            c.remove(3).unwrap();
            let n = c
                .batch(&[Tuple::add(7), Tuple::add(9), Tuple::add(9), Tuple::add(9)])
                .unwrap();
            assert_eq!(n, 4);
            assert_eq!(c.freq(7).unwrap(), 3, "{kind:?}");
            assert_eq!(c.mode().unwrap(), Some((7, 3)), "{kind:?}");
            assert_eq!(c.least().unwrap(), Some((3, -1)), "{kind:?}");
            assert_eq!(c.median().unwrap(), Some(0), "{kind:?}");
            assert_eq!(c.top_k(2).unwrap(), vec![(7, 3), (9, 3)], "{kind:?}");
            assert_eq!(c.count_at_least(3).unwrap(), 2, "{kind:?}");
            let stats = c.stats().unwrap();
            assert_eq!(Client::stats_field(&stats, "applied"), Some(7), "{stats}");
            c.quit().unwrap();
            assert_eq!(server.shutdown(), 7, "{kind:?}");
        }
    }

    #[test]
    fn errors_do_not_desync_the_connection() {
        let server = start(BackendKind::Sharded { shards: 2 }, 10);
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Unknown command.
        c.send_line("NOPE 1").unwrap();
        assert!(c.recv_line().unwrap().starts_with("ERR "));
        // Out-of-range id.
        c.send_line("ADD 10").unwrap();
        assert!(c.recv_line().unwrap().contains("outside universe"));
        // Bad tuple inside a batch: whole frame rejected, nothing applied.
        c.send_line("BATCH 3").unwrap();
        c.send_line("a 1").unwrap();
        c.send_line("garbage").unwrap();
        c.send_line("a 2").unwrap();
        let reply = c.recv_line().unwrap();
        assert!(reply.starts_with("ERR tuple 2"), "{reply}");
        // The connection still answers correctly afterwards.
        assert_eq!(c.freq(1).unwrap(), 0);
        c.add(1).unwrap();
        assert_eq!(c.freq(1).unwrap(), 1);
        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn truncated_batch_is_dropped_whole() {
        let server = start(BackendKind::Sharded { shards: 1 }, 10);
        {
            let mut c = Client::connect(server.local_addr()).unwrap();
            c.add(5).unwrap(); // complete frame: must survive the drain
            c.send_line("BATCH 5").unwrap();
            c.send_line("a 1").unwrap();
            c.send_line("a 2").unwrap();
            // Drop the connection mid-body.
        }
        let mut c = Client::connect(server.local_addr()).unwrap();
        // The dropped connection's EOF-drain races with this fresh
        // connection; wait until the server reports the single applied.
        for _ in 0..200 {
            let stats = c.stats().unwrap();
            if Client::stats_field(&stats, "applied") == Some(1) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(c.freq(5).unwrap(), 1, "complete single applied");
        assert_eq!(c.freq(1).unwrap(), 0, "truncated batch dropped");
        assert_eq!(c.freq(2).unwrap(), 0, "truncated batch dropped");
        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_buffered_singles() {
        let server = start(BackendKind::Sharded { shards: 2 }, 10);
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        // flush_every is 8; three buffered adds sit in the write buffer.
        c.add(4).unwrap();
        c.add(4).unwrap();
        c.add(4).unwrap();
        // SHUTDOWN from a second connection; the first one's buffer must
        // be drained into the backend before the server stops.
        Client::connect(addr).unwrap().shutdown_server().unwrap();
        drop(c);
        assert_eq!(server.wait(), 3);
    }

    #[test]
    fn snapshot_command_round_trips_through_core() {
        // The server confines SNAPSHOT to its snapshot_dir (temp_dir in
        // these tests); clients name relative paths inside it.
        let rel_dir = format!("sprofile-server-test-{}", std::process::id());
        let dir = std::env::temp_dir().join(&rel_dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (kind, name) in [
            (BackendKind::Sharded { shards: 3 }, "sharded"),
            (BackendKind::Sharded { shards: 1 }, "one-shard"),
        ] {
            let server = start(kind, 50);
            let mut c = Client::connect(server.local_addr()).unwrap();
            let tuples: Vec<Tuple> = (0..200u32)
                .map(|i| {
                    if i % 4 == 0 {
                        Tuple::remove((i * 3) % 50)
                    } else {
                        Tuple::add((i * 7) % 50)
                    }
                })
                .collect();
            c.batch(&tuples).unwrap();
            let bytes = c.snapshot(&format!("{rel_dir}/{name}.snap")).unwrap();
            assert!(bytes > 0);
            // Absolute and traversing paths are refused outright.
            for bad in ["/tmp/abs.snap", "../escape.snap", ""] {
                c.send_line(&format!("SNAPSHOT {bad}")).unwrap();
                let reply = c.recv_line().unwrap();
                assert!(reply.starts_with("ERR"), "{bad:?} -> {reply}");
            }
            // Restore offline and compare against the oracle.
            let data = std::fs::read(dir.join(format!("{name}.snap"))).unwrap();
            let restored = SProfile::from_snapshot_bytes(&data).unwrap();
            let mut oracle = SProfile::new(50);
            for t in &tuples {
                oracle.apply(*t);
            }
            for x in 0..50 {
                assert_eq!(restored.frequency(x), oracle.frequency(x), "{name} obj {x}");
            }
            c.quit().unwrap();
            server.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients_settle_to_exact_counts() {
        let server = start(BackendKind::Sharded { shards: 4 }, 32);
        let addr = server.local_addr();
        let threads: Vec<_> = (0..6u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..320u32 {
                        c.add((i + t) % 32).unwrap();
                    }
                    c.quit().unwrap();
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let mut c = Client::connect(addr).unwrap();
        // 6 threads × 320 adds, each covering every object 10 times.
        for x in 0..32 {
            assert_eq!(c.freq(x).unwrap(), 60, "object {x}");
        }
        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn wal_mode_recovers_state_across_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "sprofile-server-wal-restart-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = DurabilityConfig {
            checkpoint_every: 8,
            ..DurabilityConfig::new(&dir)
        };
        let config = |backend| ServerConfig {
            m: 64,
            backend,
            workers: 2,
            flush_every: 4,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(wal.clone()),
            ..ServerConfig::default()
        };
        // Run 1 (sharded): write, then stop gracefully.
        let server = Server::start(config(BackendKind::Sharded { shards: 4 }), "127.0.0.1:0")
            .expect("start run 1");
        let mut c = Client::connect(server.local_addr()).unwrap();
        for _ in 0..5 {
            c.add(9).unwrap();
        }
        c.batch(&[Tuple::add(2), Tuple::add(2), Tuple::remove(7)])
            .unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(Client::stats_field(&stats, "wal"), Some(1), "{stats}");
        assert!(
            Client::stats_field(&stats, "wal_records").unwrap_or(0) > 0,
            "{stats}"
        );
        c.quit().unwrap();
        server.shutdown();
        // Run 2 (one shard — recovery is shape-agnostic): state is back.
        let server = Server::start(config(BackendKind::Sharded { shards: 1 }), "127.0.0.1:0")
            .expect("start run 2");
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.freq(9).unwrap(), 5);
        assert_eq!(c.freq(2).unwrap(), 2);
        assert_eq!(c.freq(7).unwrap(), -1);
        // And keeps logging new writes on top of the recovered LSNs.
        c.add(9).unwrap();
        assert_eq!(c.freq(9).unwrap(), 6);
        c.quit().unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_startup_fails_loudly_on_a_corrupt_log() {
        let dir = std::env::temp_dir().join(format!(
            "sprofile-server-wal-corrupt-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A universe-mismatched checkpoint (written for m=8) must stop a
        // m=64 server at startup, not at query time.
        let mut wal = sprofile_persist::Wal::open(
            sprofile_persist::WalOptions {
                dir: dir.clone(),
                ..Default::default()
            },
            1,
        )
        .unwrap();
        wal.checkpoint(&SProfile::new(8).to_snapshot_bytes())
            .unwrap();
        drop(wal);
        let result = Server::start(
            ServerConfig {
                m: 64,
                wal: Some(DurabilityConfig::new(&dir)),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        );
        match result {
            Err(err) => {
                assert!(err.to_string().contains("universe mismatch"), "{err}")
            }
            Ok(server) => {
                server.shutdown();
                panic!("mismatched WAL must fail startup");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn replica_follows_the_primary_rejects_writes_and_promotes() {
        let base =
            std::env::temp_dir().join(format!("sprofile-server-repl-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let wal_at = |name: &str| DurabilityConfig {
            checkpoint_every: 8,
            ..DurabilityConfig::new(base.join(name))
        };
        let primary = Server::start(
            ServerConfig {
                m: 64,
                backend: BackendKind::Sharded { shards: 4 },
                workers: 3,
                flush_every: 4,
                snapshot_dir: std::env::temp_dir(),
                wal: Some(wal_at("primary")),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("start primary");
        let replica = Server::start(
            ServerConfig {
                m: 64,
                backend: BackendKind::Sharded { shards: 1 },
                workers: 2,
                flush_every: 4,
                snapshot_dir: std::env::temp_dir(),
                wal: Some(wal_at("replica")),
                replica_of: Some(primary.local_addr().to_string()),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("start replica");

        // Write through the primary.
        let mut pc = Client::connect(primary.local_addr()).unwrap();
        for _ in 0..5 {
            pc.add(9).unwrap();
        }
        pc.batch(&[Tuple::add(2), Tuple::add(2), Tuple::remove(7)])
            .unwrap();
        pc.freq(9).unwrap(); // read barrier: everything flushed + logged
        let pstats = pc.stats().unwrap();
        assert_eq!(Client::stats_field(&pstats, "repl_head_lsn"), Some(2));
        let head = 2;

        // The replica converges to the primary's head.
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        wait_for("replica catch-up", || {
            let stats = rc.stats().unwrap();
            Client::stats_field(&stats, "repl_applied_lsn") == Some(head)
        });
        let rstats = rc.stats().unwrap();
        assert!(rstats.contains("repl_role=replica"), "{rstats}");
        assert!(rstats.contains("repl_connected=1"), "{rstats}");
        assert!(rstats.contains("repl_lag_lsn=0"), "{rstats}");
        assert_eq!(rc.freq(9).unwrap(), 5);
        assert_eq!(rc.freq(2).unwrap(), 2);
        assert_eq!(rc.freq(7).unwrap(), -1);
        assert_eq!(rc.mode().unwrap(), Some((9, 5)));

        // Writes are rejected while read-only — including BATCH, whose
        // body must be consumed so the connection stays usable.
        match rc.add(1) {
            Err(ClientError::Server(msg)) => assert_eq!(msg, "readonly"),
            other => panic!("expected ERR readonly, got {other:?}"),
        }
        match rc.batch(&[Tuple::add(1), Tuple::add(1)]) {
            Err(ClientError::Server(msg)) => assert_eq!(msg, "readonly"),
            other => panic!("expected ERR readonly, got {other:?}"),
        }
        assert_eq!(rc.freq(9).unwrap(), 5, "connection still in sync");

        // The primary reports its side of the stream.
        let pstats = pc.stats().unwrap();
        assert!(pstats.contains("repl_role=primary"), "{pstats}");
        assert!(pstats.contains("repl_connected=1"), "{pstats}");
        assert!(
            Client::stats_field(&pstats, "repl_records").unwrap_or(0) >= 2,
            "{pstats}"
        );

        // PROMOTE on the primary is refused; on the replica it flips the
        // write path open at the applied LSN.
        match pc.promote() {
            Err(ClientError::Server(msg)) => assert!(msg.contains("not a replica"), "{msg}"),
            other => panic!("expected ERR not a replica, got {other:?}"),
        }
        // Promotion opens a fresh generation: epoch 1 → 2.
        assert_eq!(rc.promote().unwrap(), (head, 2));
        rc.add(9).unwrap();
        assert_eq!(rc.freq(9).unwrap(), 6);
        let rstats = rc.stats().unwrap();
        assert!(rstats.contains("repl_role=promoted"), "{rstats}");
        assert!(rstats.contains("repl_epoch=2"), "{rstats}");
        // Idempotent: a second PROMOTE reports the same position and
        // does not bump again.
        assert_eq!(rc.promote().unwrap(), (head, 2));

        pc.quit().unwrap();
        rc.quit().unwrap();
        primary.shutdown();
        replica.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_pipelined_ack_behind_the_replicate_line_is_not_lost() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!(
            "sprofile-server-repl-pipeline-ack-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(
            ServerConfig {
                m: 16,
                workers: 2,
                wal: Some(DurabilityConfig::new(&dir)),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut pc = Client::connect(server.local_addr()).unwrap();
        for _ in 0..7 {
            pc.add(1).unwrap();
        }
        pc.freq(1).unwrap(); // 1 record logged (head lsn >= 1)
                             // One raw write carrying the handshake AND the first ack: the
                             // ack may land in the server's line reader before the stream
                             // handler takes over, and must still reach the retention floor.
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"REPLICATE 2\nACK 7\n").unwrap();
        wait_for("pipelined ack reaches the floor", || {
            let stats = pc.stats().unwrap();
            Client::stats_field(&stats, "repl_applied_lsn") == Some(7)
        });
        drop(raw);
        pc.quit().unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replica_without_wal_still_follows_and_a_plain_server_refuses_replicate() {
        // Replication requires a WAL on the primary; a plain server says
        // so instead of hanging the connection.
        let server = start(BackendKind::Sharded { shards: 2 }, 16);
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.send_line("REPLICATE 1").unwrap();
        let reply = c.recv_line().unwrap();
        assert!(reply.contains("requires --wal"), "{reply}");
        let stats = c.stats().unwrap();
        assert!(stats.contains("repl_role=none"), "{stats}");
        c.quit().unwrap();
        server.shutdown();

        // A WAL-less replica follows in memory (restarts re-sync from
        // scratch, which is fine for a pure read scale-out).
        let base =
            std::env::temp_dir().join(format!("sprofile-server-repl-nowal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let primary = Server::start(
            ServerConfig {
                m: 32,
                workers: 2,
                flush_every: 2,
                wal: Some(DurabilityConfig::new(base.join("primary"))),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let replica = Server::start(
            ServerConfig {
                m: 32,
                workers: 2,
                replica_of: Some(primary.local_addr().to_string()),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut pc = Client::connect(primary.local_addr()).unwrap();
        pc.add(3).unwrap();
        pc.add(3).unwrap();
        pc.freq(3).unwrap();
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        wait_for("no-wal replica catch-up", || rc.freq(3).unwrap() == 2);
        pc.quit().unwrap();
        rc.quit().unwrap();
        primary.shutdown();
        replica.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn loadgen_runs_against_a_live_server() {
        let server = start(BackendKind::Sharded { shards: 1 }, 256);
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 3,
            events_per_thread: 2_000,
            batch: 128,
            m: 256,
            seed: 7,
            proto: WireProto::Text,
        };
        let report = loadgen::run(&cfg).unwrap();
        assert_eq!(report.tuples_sent, 6_000);
        assert!(report.batches_sent > 0, "{report:?}");
        assert!(report.singles_sent > 0, "{report:?}");
        assert_eq!(
            Client::stats_field(&report.final_stats, "applied"),
            Some(6_000),
            "{}",
            report.final_stats
        );
        assert_eq!(server.shutdown(), 6_000);
    }
}
