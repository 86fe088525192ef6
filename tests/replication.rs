//! Replica convergence, property-style (the PR's acceptance criterion):
//! a random op stream — random batch shapes, both backend kinds on both
//! sides — is driven into a primary while a live replica follows over
//! TCP. The replica is stopped and restarted **mid-stream at a random
//! point** (its own WAL carries its durable position across the
//! restart, and the primary's checkpoint pruning may force it through a
//! `CKPT` bootstrap on reconnect). After the stream drains, the
//! replica's state must equal a single-profile oracle replay — every
//! object, plus mode and median — and a **promoted** replica must
//! accept writes and still match the oracle afterwards.

use std::path::PathBuf;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::{SProfile, Tuple};
use sprofile_server::{BackendKind, Client, DurabilityConfig, Server, ServerConfig, SyncCommit};

fn temp_base(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sprofile-repl-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..1_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Aggressive WAL knobs: tiny segments and frequent checkpoints, so the
/// run actually exercises rotation, pruning, and (when the replica is
/// down across a prune) checkpoint bootstrap.
fn wal_config(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes: 512,
        checkpoint_every: 64,
        ..DurabilityConfig::new(dir)
    }
}

/// The single-lock shape, so primary and replica differ in shard count.
const ONE_SHARD: BackendKind = BackendKind::Sharded { shards: 1 };

fn start_primary(m: u32, backend: BackendKind, dir: PathBuf) -> Server {
    Server::start(
        ServerConfig {
            m,
            backend,
            workers: 3,
            flush_every: 4,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(wal_config(dir)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start primary")
}

fn start_replica(m: u32, backend: BackendKind, dir: PathBuf, primary: &Server) -> Server {
    start_replica_of(m, backend, dir, &primary.local_addr().to_string())
}

fn start_replica_of(m: u32, backend: BackendKind, dir: PathBuf, primary: &str) -> Server {
    Server::start(
        ServerConfig {
            m,
            backend,
            workers: 2,
            flush_every: 4,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(wal_config(dir)),
            replica_of: Some(primary.to_string()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start replica")
}

/// Sends `ops` random tuples to the primary (random batch/single mix),
/// mirroring them into the oracle.
fn drive(rng: &mut StdRng, client: &mut Client, oracle: &mut SProfile, m: u32, ops: usize) {
    let mut sent = 0;
    while sent < ops {
        let chunk = rng.gen_range(1usize..=24).min(ops - sent);
        let tuples: Vec<Tuple> = (0..chunk)
            .map(|_| Tuple {
                object: rng.gen_range(0..m),
                is_add: rng.gen_bool(0.7),
            })
            .collect();
        if chunk == 1 && rng.gen_bool(0.5) {
            let t = tuples[0];
            if t.is_add {
                client.add(t.object).unwrap();
            } else {
                client.remove(t.object).unwrap();
            }
        } else {
            client.batch(&tuples).unwrap();
        }
        oracle.apply_batch(&tuples);
        sent += chunk;
    }
}

/// Blocks until the replica has applied everything the primary has
/// committed (their STATS positions agree).
fn drain(primary_client: &mut Client, replica_client: &mut Client) -> u64 {
    // The read barrier flushes the primary connection's write buffer.
    primary_client.freq(0).unwrap();
    let stats = primary_client.stats().unwrap();
    let head = Client::stats_field(&stats, "repl_head_lsn").expect("primary head");
    wait_for("replica catch-up", || {
        let stats = replica_client.stats().unwrap();
        Client::stats_field(&stats, "repl_applied_lsn") == Some(head)
    });
    head
}

fn assert_matches_oracle(client: &mut Client, oracle: &SProfile, m: u32, ctx: &str) {
    for x in 0..m {
        assert_eq!(
            client.freq(x).unwrap(),
            oracle.frequency(x),
            "{ctx}: object {x}"
        );
    }
    let mode = client.mode().unwrap();
    let oracle_mode = oracle.mode().map(|e| {
        let obj = oracle.mode_objects().iter().copied().min().unwrap();
        (obj, e.frequency)
    });
    assert_eq!(mode, oracle_mode, "{ctx}: mode");
    assert_eq!(client.median().unwrap(), oracle.median(), "{ctx}: median");
}

#[test]
fn random_stream_with_replica_restart_converges_and_promotes() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    for (case, (primary_kind, replica_kind)) in [
        (BackendKind::Sharded { shards: 3 }, ONE_SHARD),
        (ONE_SHARD, BackendKind::Sharded { shards: 2 }),
    ]
    .into_iter()
    .enumerate()
    {
        let m: u32 = rng.gen_range(16..96);
        let base = temp_base(&format!("case{case}"));
        let primary = start_primary(m, primary_kind, base.join("primary"));
        let mut replica = start_replica(m, replica_kind, base.join("replica"), &primary);
        let mut pc = Client::connect(primary.local_addr()).unwrap();
        let mut oracle = SProfile::new(m);

        // Phase 1: stream ops with the replica live.
        let phase1 = rng.gen_range(50..400);
        drive(&mut rng, &mut pc, &mut oracle, m, phase1);

        // Kill the replica mid-stream at a random point (its WAL holds
        // whatever it durably applied)...
        replica.shutdown();
        // ...keep streaming into the primary while it is down. With the
        // replica's registry slot gone, the primary's checkpoints prune
        // freely — a long-enough gap forces a bootstrap on reconnect.
        let phase2 = rng.gen_range(50..600);
        drive(&mut rng, &mut pc, &mut oracle, m, phase2);

        // Restart it from the same WAL directory; it resumes from its
        // durable position (or bootstraps from the primary's checkpoint
        // if that position is pruned).
        replica = start_replica(m, replica_kind, base.join("replica"), &primary);
        let phase3 = rng.gen_range(20..200);
        drive(&mut rng, &mut pc, &mut oracle, m, phase3);

        // Drain and compare the replica against the oracle.
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        let head = drain(&mut pc, &mut rc);
        assert_matches_oracle(&mut rc, &oracle, m, &format!("case {case} replica"));

        // Promote: the replica accepts writes at its applied LSN and
        // still matches the oracle after more random traffic.
        let (promoted_lsn, promoted_epoch) = rc.promote().unwrap();
        assert_eq!(
            promoted_lsn, head,
            "case {case}: promoted at the drained head"
        );
        assert_eq!(promoted_epoch, 2, "case {case}: promotion bumps the epoch");
        let extra = rng.gen_range(20..200);
        drive(&mut rng, &mut rc, &mut oracle, m, extra);
        rc.freq(0).unwrap(); // flush the promoted node's write buffer
        assert_matches_oracle(&mut rc, &oracle, m, &format!("case {case} promoted"));

        pc.quit().unwrap();
        rc.quit().unwrap();
        primary.shutdown();
        replica.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn a_late_replica_bootstraps_from_a_pruned_primary_log() {
    let mut rng = StdRng::seed_from_u64(0xB007);
    let m = 48u32;
    let base = temp_base("bootstrap");
    let primary = start_primary(m, BackendKind::Sharded { shards: 4 }, base.join("primary"));
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let mut oracle = SProfile::new(m);
    // Enough traffic that the 64-tuple checkpoint cadence has pruned the
    // early segments long before the replica shows up.
    drive(&mut rng, &mut pc, &mut oracle, m, 2_000);
    pc.freq(0).unwrap();
    wait_for("primary checkpoint", || {
        let stats = pc.stats().unwrap();
        Client::stats_field(&stats, "wal_checkpoints").unwrap_or(0) >= 1
    });

    // A brand-new replica must come up via CKPT bootstrap + live tail.
    let replica = start_replica(m, ONE_SHARD, base.join("replica"), &primary);
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    drain(&mut pc, &mut rc);
    assert_matches_oracle(&mut rc, &oracle, m, "bootstrapped replica");
    // And its own WAL recorded the bootstrap: a restart needs no
    // re-bootstrap and converges again.
    replica.shutdown();
    let replica = start_replica(m, ONE_SHARD, base.join("replica"), &primary);
    drive(&mut rng, &mut pc, &mut oracle, m, 100);
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    drain(&mut pc, &mut rc);
    assert_matches_oracle(&mut rc, &oracle, m, "restarted bootstrapped replica");

    pc.quit().unwrap();
    rc.quit().unwrap();
    primary.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Epoch fencing, end to end: after a failover the old primary must be
/// refused on both sides of the handshake — it rejects followers of the
/// newer generation (handshake fencing, counted in `fenced_rejects`),
/// and a replica that followed the newer generation refuses to follow
/// the stale head after a failback re-point.
#[test]
fn a_stale_primary_is_fenced_after_failover() {
    let mut rng = StdRng::seed_from_u64(0xFE2CE);
    let m = 32u32;
    let base = temp_base("fencing");
    let primary = start_primary(m, BackendKind::Sharded { shards: 2 }, base.join("primary"));
    let replica = start_replica(m, ONE_SHARD, base.join("replica"), &primary);
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let mut oracle = SProfile::new(m);
    drive(&mut rng, &mut pc, &mut oracle, m, 100);
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    let head = drain(&mut pc, &mut rc);

    // Failover: the replica takes over at a bumped generation.
    assert_eq!(rc.promote().unwrap(), (head, 2));
    let stats = rc.stats().unwrap();
    assert_eq!(
        Client::stats_field(&stats, "repl_epoch"),
        Some(2),
        "{stats}"
    );

    // Handshake fencing: the old primary (still at epoch 1) must refuse
    // a follower of generation 2, loudly.
    let mut raw = Client::connect(primary.local_addr()).unwrap();
    raw.send_line(&format!("REPLICATE {} 2", head + 1)).unwrap();
    let reply = raw.recv_line().unwrap();
    assert!(reply.starts_with("ERR fenced"), "{reply}");
    let stats = pc.stats().unwrap();
    assert_eq!(
        Client::stats_field(&stats, "fenced_rejects"),
        Some(1),
        "{stats}"
    );

    // A second replica follows the promoted head and durably adopts its
    // generation (via the stream's EPOCH greeting).
    let second = start_replica(m, ONE_SHARD, base.join("second"), &replica);
    let mut sc = Client::connect(second.local_addr()).unwrap();
    drain(&mut rc, &mut sc);
    let stats = sc.stats().unwrap();
    assert_eq!(
        Client::stats_field(&stats, "repl_epoch"),
        Some(2),
        "{stats}"
    );
    assert_matches_oracle(&mut sc, &oracle, m, "second replica");
    sc.quit().unwrap();
    second.shutdown();

    // Failback fencing: re-pointed at the stale epoch-1 primary, it
    // refuses the stream instead of silently re-following a zombie.
    let second = start_replica_of(
        m,
        ONE_SHARD,
        base.join("second"),
        &primary.local_addr().to_string(),
    );
    let mut sc = Client::connect(second.local_addr()).unwrap();
    wait_for("failback fenced", || {
        let stats = sc.stats().unwrap();
        Client::stats_field(&stats, "fenced_rejects").unwrap_or(0) >= 1
    });
    let stats = sc.stats().unwrap();
    assert_eq!(
        Client::stats_field(&stats, "repl_epoch"),
        Some(2),
        "{stats}"
    );

    pc.quit().unwrap();
    rc.quit().unwrap();
    sc.quit().unwrap();
    primary.shutdown();
    replica.shutdown();
    second.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Synchronous commit gives RPO = 0: with `--sync-commit quorum` every
/// acknowledged write has reached at least one replica, so killing the
/// primary (crash-stop, no final checkpoint) and promoting the most
/// caught-up replica loses nothing the client saw acknowledged.
#[test]
fn sync_commit_quorum_loses_no_acked_write_across_a_primary_kill() {
    let mut rng = StdRng::seed_from_u64(0xAC0DE);
    let m = 24u32;
    let base = temp_base("sync-commit");
    let primary = Server::start(
        ServerConfig {
            m,
            backend: BackendKind::Sharded { shards: 2 },
            workers: 3,
            flush_every: 4, // forced to 1 by sync commit
            snapshot_dir: std::env::temp_dir(),
            wal: Some(wal_config(base.join("primary"))),
            sync_commit: SyncCommit::Quorum,
            sync_commit_timeout: std::time::Duration::from_secs(10),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start sync-commit primary");
    let r1 = start_replica(
        m,
        BackendKind::Sharded { shards: 2 },
        base.join("r1"),
        &primary,
    );
    let r2 = start_replica(m, ONE_SHARD, base.join("r2"), &primary);
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let mut oracle = SProfile::new(m);
    // Every op `drive` mirrors into the oracle was OK'd by the primary,
    // and with quorum commit an OK means >= 1 replica acked that LSN.
    drive(&mut rng, &mut pc, &mut oracle, m, 150);
    let stats = pc.stats().unwrap();
    assert!(stats.contains("sync_commit=quorum"), "{stats}");
    drop(pc);

    // Crash-stop the primary: no drain, no final checkpoint.
    primary.kill();

    // The most caught-up replica holds every acked LSN (the log is
    // sequential, so max(applied) covers all acked positions).
    let mut c1 = Client::connect(r1.local_addr()).unwrap();
    let mut c2 = Client::connect(r2.local_addr()).unwrap();
    let a1 = Client::stats_field(&c1.stats().unwrap(), "repl_applied_lsn").unwrap();
    let a2 = Client::stats_field(&c2.stats().unwrap(), "repl_applied_lsn").unwrap();
    let (mut wc, lc, wsrv, lsrv) = if a1 >= a2 {
        (c1, c2, r1, r2)
    } else {
        (c2, c1, r2, r1)
    };
    let (_, epoch) = wc.promote().unwrap();
    assert_eq!(epoch, 2, "promotion after the kill bumps the generation");
    assert_matches_oracle(&mut wc, &oracle, m, "sync-commit survivor");

    wc.quit().unwrap();
    lc.quit().unwrap();
    wsrv.shutdown();
    lsrv.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
