//! TCP server ingestion throughput: the full wire path (connect →
//! `BATCH`/`ADD` frames → per-connection write batching → 8-shard
//! profile) at two batch sizes × both wire protocols, via the real load
//! generator. The binary protocol pipelines `BATCH` frames, so at
//! small batch sizes it is not round-trip-bound like text.
//!
//! Besides the criterion group, `record_json` re-times the matrix with a
//! best-of-N wall clock and writes `BENCH_server.json` at the workspace
//! root so CI uploads it next to `BENCH_batch.json`. The summary now
//! carries a `latency_us` section (client-side p50/p99/p999/max per
//! cell) so `bench_gate` catches tail-latency regressions, not just
//! throughput drops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sprofile_server::loadgen::LatencySummary;
use sprofile_server::{
    loadgen, BackendKind, LoadgenConfig, ObsConfig, Server, ServerConfig, WireProto,
};

/// Universe size (hot-entity regime: stream dwarfs the universe).
const M: u32 = 4_096;
/// Concurrent loadgen connections (= event-loop workers).
const THREADS: usize = 4;
/// Tuples per thread per measured run.
const EVENTS_PER_THREAD: usize = 16_384;
/// `BATCH` frame sizes swept (the acceptance floor: ≥ 2).
const BATCH_SIZES: [usize; 2] = [64, 4_096];

/// Shard count of the benched server.
const SHARDS: usize = 8;
/// Prefix of every JSON key: the server's shape.
const NAME: &str = "sharded8";

const PROTOS: [(&str, WireProto); 2] = [("text", WireProto::Text), ("bin", WireProto::Bin)];

/// One full ingestion run over loopback TCP; returns tuples/second and
/// the client-side latency summary.
fn run_once(batch: usize, proto: WireProto, obs_off: bool) -> (f64, LatencySummary) {
    let obs = if obs_off {
        ObsConfig {
            level: None,
            ..ObsConfig::default()
        }
    } else {
        ObsConfig::default()
    };
    let server = Server::start(
        ServerConfig {
            m: M,
            backend: BackendKind::Sharded { shards: SHARDS },
            workers: THREADS,
            flush_every: 512,
            obs,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind bench server");
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: THREADS,
        events_per_thread: EVENTS_PER_THREAD,
        batch,
        m: M,
        seed: 99,
        proto,
    };
    let report = loadgen::run(&cfg).expect("loadgen");
    let applied = server.shutdown();
    assert_eq!(applied, (THREADS * EVENTS_PER_THREAD) as u64);
    (report.tuples_per_sec(), report.latency)
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_ingest");
    group.throughput(Throughput::Elements((THREADS * EVENTS_PER_THREAD) as u64));
    group.sample_size(5);
    for (pname, proto) in PROTOS {
        for batch in BATCH_SIZES {
            let id = BenchmarkId::new(format!("{NAME}_{pname}"), batch);
            group.bench_with_input(id, &batch, |b, &batch| {
                b.iter(|| run_once(batch, proto, false));
            });
        }
    }
    group.finish();
}

/// Accumulates one matrix's worth of summary fragments and renders the
/// same JSON shape as the committed baselines.
#[derive(Default)]
struct Summary {
    sections: Vec<String>,
    latencies: Vec<String>,
}

impl Summary {
    fn push_cell(&mut self, pname: &str, batch: usize, best: f64, lat: &LatencySummary) {
        self.latencies.push(format!(
            "    \"{NAME}_{pname}.{batch}\": {{\"p50\": {}, \"p99\": {}, \
             \"p999\": {}, \"max\": {}}}",
            lat.p50_us, lat.p99_us, lat.p999_us, lat.max_us
        ));
        self.sections.push(format!("\"{batch}\": {best:.0}"));
    }

    fn close_key(&mut self, key: &str, cells: usize) {
        let start = self.sections.len() - cells;
        let joined = self.sections.split_off(start).join(", ");
        self.sections.push(format!("    \"{key}\": {{{joined}}}"));
    }

    fn write(&self, path: &str) {
        let json = format!(
            "{{\n  \"bench\": \"server\",\n  \"m\": {M},\n  \"threads\": {THREADS},\n  \
             \"events_per_thread\": {EVENTS_PER_THREAD},\n  \
             \"throughput_tuples_per_sec\": {{\n{}\n  }},\n  \
             \"latency_us\": {{\n{}\n  }}\n}}\n",
            self.sections.join(",\n"),
            self.latencies.join(",\n"),
        );
        std::fs::write(path, &json).expect("write bench server summary");
        println!("bench server summary written to {path}");
        println!("{json}");
    }
}

fn best_of(runs: Vec<(f64, LatencySummary)>) -> (f64, LatencySummary) {
    runs.into_iter()
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty repeats")
}

/// Times the matrix (best of N) and writes `BENCH_server.json` (path
/// overridable with `BENCH_SERVER_OUT`). Throughput keys keep the bare
/// [`NAME`] for the text protocol — the committed baselines predate the
/// binary protocol — and suffix `_bin` for binary. Latency cells
/// come from the best-throughput run of each matrix point.
fn record_json(_c: &mut Criterion) {
    // Best-of-N absorbs scheduler noise; the obs-overhead CI gate bumps
    // this (`SPROFILE_BENCH_REPEATS=7`) because its 2% bar is much
    // tighter than the 15% regression gate.
    let repeats: usize = std::env::var("SPROFILE_BENCH_REPEATS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    // With `SPROFILE_BENCH_OBS_OFF_OUT` set, every repeat also measures
    // an observability-disabled twin right next to the real run,
    // alternating which side goes first so slow machine drift cancels
    // instead of biasing one side. The twin summary lands at that path;
    // `bench_gate <twin-dir> .` is then a paired same-window A/B of obs
    // overhead.
    let obs_off_out = std::env::var("SPROFILE_BENCH_OBS_OFF_OUT").ok();
    let mut on = Summary::default();
    let mut off = Summary::default();
    for (pname, proto) in PROTOS {
        let key = if proto == WireProto::Text {
            NAME.to_string()
        } else {
            format!("{NAME}_{pname}")
        };
        for &batch in BATCH_SIZES.iter() {
            let mut on_runs = Vec::with_capacity(repeats);
            let mut off_runs = Vec::with_capacity(repeats);
            for i in 0..repeats {
                let off_first = obs_off_out.is_some() && i % 2 == 0;
                if off_first {
                    off_runs.push(run_once(batch, proto, true));
                }
                on_runs.push(run_once(batch, proto, false));
                if obs_off_out.is_some() && !off_first {
                    off_runs.push(run_once(batch, proto, true));
                }
            }
            let (best, lat) = best_of(on_runs);
            on.push_cell(pname, batch, best, &lat);
            if obs_off_out.is_some() {
                let (best, lat) = best_of(off_runs);
                off.push_cell(pname, batch, best, &lat);
            }
        }
        on.close_key(&key, BATCH_SIZES.len());
        if obs_off_out.is_some() {
            off.close_key(&key, BATCH_SIZES.len());
        }
    }
    let path = std::env::var("BENCH_SERVER_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json").into());
    on.write(&path);
    if let Some(path) = obs_off_out {
        off.write(&path);
    }
}

criterion_group!(benches, bench_server, record_json);
criterion_main!(benches);
