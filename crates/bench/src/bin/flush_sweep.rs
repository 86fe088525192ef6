//! Sweep of the server's per-connection write-buffer flush threshold
//! (`--flush`): the ROADMAP flagged the 256-tuple default as an
//! unmeasured guess. Runs the `server` bench's loopback ingestion matrix
//! at several thresholds on an 8-shard server and prints tuples/s, so
//! the default can be picked from data.
//!
//! ```text
//! cargo run -p sprofile-bench --release --bin flush_sweep [-- --repeats N]
//! ```

use sprofile_server::{loadgen, BackendKind, LoadgenConfig, Server, ServerConfig, WireProto};

/// Universe size (matches the `server`/`wal` benches).
const M: u32 = 4_096;
/// Concurrent loadgen connections (= event-loop workers).
const THREADS: usize = 4;
/// Tuples per thread per measured run.
const EVENTS_PER_THREAD: usize = 16_384;
/// Flush thresholds under test (256 was the unmeasured default).
const FLUSH: [usize; 4] = [64, 256, 1024, 4096];
/// Client `BATCH` size: small frames, so the per-connection buffer —
/// the thing `--flush` controls — actually aggregates. (Large client
/// batches bypass it: each frame flushes immediately.)
const BATCH: usize = 64;

fn run_once(flush: usize) -> f64 {
    let server = Server::start(
        ServerConfig {
            m: M,
            backend: BackendKind::Sharded { shards: 8 },
            workers: THREADS,
            flush_every: flush,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind sweep server");
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: THREADS,
        events_per_thread: EVENTS_PER_THREAD,
        batch: BATCH,
        m: M,
        seed: 99,
        proto: WireProto::Text,
    };
    let report = loadgen::run(&cfg).expect("loadgen");
    let applied = server.shutdown();
    assert_eq!(applied, (THREADS * EVENTS_PER_THREAD) as u64);
    report.tuples_per_sec()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let repeats: usize = args
        .iter()
        .position(|a| a == "--repeats")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    println!(
        "flush sweep: m={M} threads={THREADS} n={EVENTS_PER_THREAD} batch={BATCH} \
         best-of-{repeats} (tuples/s)"
    );
    println!("{:>10} {:>12}", "flush", "sharded8");
    for flush in FLUSH {
        let best = (0..repeats).map(|_| run_once(flush)).fold(0.0f64, f64::max);
        println!("{:>10} {:>12.0}", flush, best);
    }
}
