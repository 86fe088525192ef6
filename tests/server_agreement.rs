//! End-to-end acceptance: N concurrent loadgen threads (mixed
//! `ADD`/`RM` singles and `BATCH` frames) against a live TCP server
//! must leave the profile in **exactly** the state a sequential
//! [`SProfile`] oracle reaches when fed the same tuples — final `FREQ`
//! for every object, `MODE`, `LEAST`, `MEDIAN`, `TOPK`, and `CAL`
//! identical, with 8 shards and with one.
//!
//! This holds because add/remove commute: whatever interleaving the
//! accept pool produces, the final frequency vector is the multiset sum
//! of all threads' tuples, and every query above is a deterministic
//! function of that vector (ties broken by smallest id on both sides).

use sprofile::SProfile;
use sprofile_server::loadgen::{self, thread_tuples};
use sprofile_server::{BackendKind, Client, LoadgenConfig, Server, ServerConfig, WireProto};

const M: u32 = 256;
const THREADS: usize = 4;
const EVENTS_PER_THREAD: usize = 5_000;

fn run_agreement(kind: BackendKind, proto: WireProto) {
    let server = Server::start(
        ServerConfig {
            m: M,
            backend: kind,
            workers: THREADS,
            flush_every: 96,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind test server");

    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: THREADS,
        events_per_thread: EVENTS_PER_THREAD,
        batch: 256,
        m: M,
        seed: 20190612,
        proto,
    };
    let report = loadgen::run(&cfg).expect("loadgen run");
    let total = (THREADS * EVENTS_PER_THREAD) as u64;
    assert_eq!(report.tuples_sent, total, "{kind:?}");
    assert!(report.batches_sent > 0, "{kind:?}: no BATCH frames sent");
    assert!(report.singles_sent > 0, "{kind:?}: no single ops sent");
    assert_eq!(
        Client::stats_field(&report.final_stats, "applied"),
        Some(total),
        "{kind:?}: {}",
        report.final_stats
    );

    // Sequential oracle over the union of all threads' tuples (order
    // irrelevant for the final state).
    let mut oracle = SProfile::new(M);
    for t in 0..THREADS {
        for tuple in thread_tuples(&cfg, t) {
            oracle.apply(tuple);
        }
    }

    let mut c = Client::connect_with(server.local_addr(), proto).expect("connect probe");
    for x in 0..M {
        assert_eq!(
            c.freq(x).expect("FREQ"),
            oracle.frequency(x),
            "{kind:?}: object {x}"
        );
    }
    let mode = oracle.mode().map(|e| {
        let obj = oracle.mode_objects().iter().copied().min().expect("tied");
        (obj, e.frequency)
    });
    let least = oracle.least().map(|e| {
        let obj = oracle.least_objects().iter().copied().min().expect("tied");
        (obj, e.frequency)
    });
    assert_eq!(c.mode().expect("MODE"), mode, "{kind:?}");
    assert_eq!(c.least().expect("LEAST"), least, "{kind:?}");
    assert_eq!(c.median().expect("MEDIAN"), oracle.median(), "{kind:?}");
    assert_eq!(c.top_k(20).expect("TOPK"), oracle.top_k(20), "{kind:?}");
    for threshold in [-5i64, 0, 1, 10] {
        assert_eq!(
            c.count_at_least(threshold).expect("CAL"),
            oracle.count_at_least(threshold),
            "{kind:?}: threshold {threshold}"
        );
    }
    c.quit().expect("QUIT");
    assert_eq!(server.shutdown(), total, "{kind:?}: applied count at drain");
}

#[test]
fn concurrent_loadgen_agrees_with_oracle_sharded() {
    run_agreement(BackendKind::Sharded { shards: 8 }, WireProto::Text);
}

#[test]
fn concurrent_loadgen_agrees_with_oracle_one_shard() {
    run_agreement(BackendKind::Sharded { shards: 1 }, WireProto::Text);
}

#[test]
fn concurrent_loadgen_agrees_with_oracle_sharded_bin() {
    run_agreement(BackendKind::Sharded { shards: 8 }, WireProto::Bin);
}

#[test]
fn concurrent_loadgen_agrees_with_oracle_one_shard_bin() {
    run_agreement(BackendKind::Sharded { shards: 1 }, WireProto::Bin);
}
