//! End-to-end durability through the TCP server: writes acknowledged
//! over the wire survive a restart (graceful or torn), across shard
//! counts, with recovery riding the same `--wal` directory.

use std::fs;
use std::path::{Path, PathBuf};

use sprofile::{SProfile, Tuple};
use sprofile_persist::is_segment_file;
use sprofile_server::{BackendKind, Client, DurabilityConfig, Server, ServerConfig, SyncPolicy};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sprofile-server-dur-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn start(kind: BackendKind, m: u32, wal_dir: &Path) -> Server {
    Server::start(
        ServerConfig {
            m,
            backend: kind,
            workers: 2,
            flush_every: 8,
            snapshot_dir: std::env::temp_dir(),
            wal: Some(DurabilityConfig {
                sync: SyncPolicy::Never,
                checkpoint_every: 0,
                ..DurabilityConfig::new(wal_dir)
            }),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind server")
}

/// Deterministic workload; returns the oracle after `batches` frames of
/// `per_batch` tuples each (each frame ≥ flush_every, so frame =
/// WAL record).
fn drive(client: &mut Client, m: u32, batches: usize, per_batch: usize) -> SProfile {
    let mut oracle = SProfile::new(m);
    for b in 0..batches {
        let frame: Vec<Tuple> = (0..per_batch)
            .map(|i| {
                let x = ((b * per_batch + i) as u32 * 17 + 3) % m;
                if (b + i) % 5 == 0 {
                    Tuple::remove(x)
                } else {
                    Tuple::add(x)
                }
            })
            .collect();
        client.batch(&frame).unwrap();
        for t in &frame {
            oracle.apply(*t);
        }
    }
    oracle
}

fn assert_matches(client: &mut Client, oracle: &SProfile, m: u32, what: &str) {
    for x in 0..m {
        assert_eq!(
            client.freq(x).unwrap(),
            oracle.frequency(x),
            "{what} obj {x}"
        );
    }
    assert_eq!(client.median().unwrap(), oracle.median(), "{what} median");
}

#[test]
fn acknowledged_writes_survive_graceful_restarts_across_backends() {
    let m = 48u32;
    let dir = temp_dir("graceful");
    let mut oracle;
    {
        let server = start(BackendKind::Sharded { shards: 4 }, m, &dir);
        let mut c = Client::connect(server.local_addr()).unwrap();
        oracle = drive(&mut c, m, 12, 16);
        c.quit().unwrap();
        server.shutdown();
    }
    // Restart on a *different* shard count; continue writing; restart
    // again.
    {
        let server = start(BackendKind::Sharded { shards: 1 }, m, &dir);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_matches(&mut c, &oracle, m, "after restart 1");
        let more = drive(&mut c, m, 5, 16);
        for x in 0..m {
            let combined = oracle.frequency(x) + more.frequency(x);
            assert_eq!(c.freq(x).unwrap(), combined, "combined obj {x}");
        }
        for x in 0..m {
            for _ in 0..more.frequency(x).max(0) {
                oracle.add(x);
            }
            for _ in 0..(-more.frequency(x)).max(0) {
                oracle.remove(x);
            }
        }
        c.quit().unwrap();
        server.shutdown();
    }
    {
        let server = start(BackendKind::Sharded { shards: 2 }, m, &dir);
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_matches(&mut c, &oracle, m, "after restart 2");
        c.quit().unwrap();
        server.shutdown();
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_restarts_with_the_durable_prefix() {
    let m = 32u32;
    let dir = temp_dir("torn");
    let full_oracle;
    {
        let server = start(BackendKind::Sharded { shards: 4 }, m, &dir);
        let mut c = Client::connect(server.local_addr()).unwrap();
        full_oracle = drive(&mut c, m, 10, 16);
        c.quit().unwrap();
        server.shutdown();
    }
    // Simulate the crash the graceful shutdown papered over: delete the
    // shutdown checkpoint and tear the last record's bytes off the tail
    // segment. The durable prefix is then frames 1..=9.
    for entry in fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".ck"))
        {
            fs::remove_file(entry.path()).unwrap();
        }
    }
    let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let e = e.unwrap();
            e.file_name()
                .to_str()
                .and_then(is_segment_file)
                .map(|lsn| (lsn, e.path()))
        })
        .collect();
    segments.sort_unstable_by_key(|&(lsn, _)| lsn);
    let tail = segments.pop().unwrap().1;
    let bytes = fs::read(&tail).unwrap();
    fs::write(&tail, &bytes[..bytes.len() - 7]).unwrap();

    // The prefix oracle: replay the same deterministic workload minus
    // the torn final frame.
    let mut prefix = SProfile::new(m);
    {
        // Regenerate frames 0..9 exactly as `drive` built them.
        for b in 0..9usize {
            for i in 0..16usize {
                let x = ((b * 16 + i) as u32 * 17 + 3) % m;
                let t = if (b + i) % 5 == 0 {
                    Tuple::remove(x)
                } else {
                    Tuple::add(x)
                };
                prefix.apply(t);
            }
        }
    }
    assert_ne!(
        sprofile::verify::derive_frequencies(&prefix),
        sprofile::verify::derive_frequencies(&full_oracle),
        "the torn frame must actually change state for this test to bite"
    );
    let server = start(BackendKind::Sharded { shards: 1 }, m, &dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_matches(&mut c, &prefix, m, "after torn restart");
    c.quit().unwrap();
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_exposes_wal_counters_over_the_wire() {
    let m = 16u32;
    let dir = temp_dir("stats");
    let server = start(BackendKind::Sharded { shards: 2 }, m, &dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.batch(&(0..20u32).map(|i| Tuple::add(i % m)).collect::<Vec<_>>())
        .unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(Client::stats_field(&stats, "wal"), Some(1), "{stats}");
    assert_eq!(
        Client::stats_field(&stats, "wal_tuples"),
        Some(20),
        "{stats}"
    );
    assert!(
        Client::stats_field(&stats, "wal_bytes").unwrap_or(0) > 0,
        "{stats}"
    );
    assert_eq!(
        Client::stats_field(&stats, "wal_segments"),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        Client::stats_field(&stats, "wal_errors"),
        Some(0),
        "{stats}"
    );
    c.quit().unwrap();
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}
