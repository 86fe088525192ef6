//! Observability integration: the `METRICS` Prometheus exposition must
//! *parse* (a hand-rolled text-format 0.0.4 parser below — no external
//! dep), agree with `STATS` when the server is quiesced (both views
//! read the same counters), expose per-verb histogram counts equal to
//! the operations actually sent, and stay valid on every replication
//! role.
//!
//! The parser is deliberately strict about the slice of the format the
//! server emits: `# HELP`/`# TYPE` headers before samples, known metric
//! kinds, label syntax, float values, and — for histograms —
//! cumulative bucket monotonicity with the `+Inf` bucket equal to
//! `_count`.

use std::collections::BTreeMap;

use sprofile_obs::span::Phase;
use sprofile_server::{
    BackendKind, Client, ClusterConfig, DurabilityConfig, Server, ServerConfig, SyncCommit,
    SyncPolicy, WireProto,
};

// ---------------------------------------------------------------------
// A minimal Prometheus text-format parser.

#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Debug)]
struct Exposition {
    /// family name -> declared kind (`counter`/`gauge`/`histogram`).
    types: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(body: &str, line: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {line}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}: {line}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value: {line}"));
        }
        // The server never emits escaped quotes; reject rather than
        // silently mis-parse if that ever changes.
        let close = rest[1..]
            .find('"')
            .ok_or_else(|| format!("unterminated label value: {line}"))?;
        let value = &rest[1..1 + close];
        if value.contains('\\') {
            return Err(format!("escape in label value (unsupported): {line}"));
        }
        labels.push((key.to_string(), value.to_string()));
        rest = &rest[close + 2..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {line}"));
        }
    }
    Ok(labels)
}

fn parse_value(s: &str, line: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}: {line}")),
    }
}

/// The base family a sample belongs to: histogram series append
/// `_bucket`/`_sum`/`_count` to the declared family name.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> Option<&'a str> {
    if types.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base);
            }
        }
    }
    None
}

fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut types = BTreeMap::new();
    let mut helps = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad TYPE line: {line}"))?;
            if !valid_name(name) {
                return Err(format!("bad metric name in TYPE: {line}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown metric kind {kind:?}: {line}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("duplicate TYPE for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad HELP line: {line}"))?;
            helps.insert(name.to_string(), ());
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // A sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without value: {line}"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated label set: {line}"))?;
                (name, parse_labels(body, line)?)
            }
            None => (name_labels, Vec::new()),
        };
        if !valid_name(name) {
            return Err(format!("bad metric name {name:?}: {line}"));
        }
        let family = family_of(name, &types)
            .ok_or_else(|| format!("sample before/without its TYPE: {line}"))?;
        if !helps.contains_key(family) {
            return Err(format!("family {family} has no HELP"));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value: parse_value(value, line)?,
        });
    }
    let exposition = Exposition { types, samples };
    validate_histograms(&exposition)?;
    Ok(exposition)
}

/// Per histogram series (family × non-`le` label set): buckets must be
/// cumulative and non-decreasing in `le` order, `+Inf` must equal
/// `_count`, and `_sum`/`_count` must both exist.
fn validate_histograms(e: &Exposition) -> Result<(), String> {
    let hist_families: Vec<&String> = e
        .types
        .iter()
        .filter(|(_, kind)| kind.as_str() == "histogram")
        .map(|(name, _)| name)
        .collect();
    for family in hist_families {
        // Group bucket samples by their non-le labels.
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &e.samples {
            if s.name != format!("{family}_bucket") {
                continue;
            }
            let le = s
                .label("le")
                .ok_or_else(|| format!("{family} bucket without le"))?;
            let bound = parse_value(le, le)?;
            let key: String = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            series.entry(key).or_default().push((bound, s.value));
        }
        if series.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        for (key, mut buckets) in series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = -1.0f64;
            for &(bound, count) in &buckets {
                if count < prev {
                    return Err(format!(
                        "{family}{{{key}}}: bucket le={bound} count {count} < previous {prev}"
                    ));
                }
                prev = count;
            }
            let (last_bound, inf_count) = *buckets.last().expect("nonempty");
            if last_bound != f64::INFINITY {
                return Err(format!("{family}{{{key}}}: no +Inf bucket"));
            }
            let count = e
                .samples
                .iter()
                .find(|s| {
                    s.name == format!("{family}_count")
                        && s.labels
                            .iter()
                            .map(|(k, v)| format!("{k}={v},"))
                            .collect::<String>()
                            == key
                })
                .ok_or_else(|| format!("{family}{{{key}}}: no _count"))?;
            if count.value != inf_count {
                return Err(format!(
                    "{family}{{{key}}}: +Inf bucket {inf_count} != _count {}",
                    count.value
                ));
            }
            if !e.samples.iter().any(|s| {
                s.name == format!("{family}_sum")
                    && s.labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v},"))
                        .collect::<String>()
                        == key
            }) {
                return Err(format!("{family}{{{key}}}: no _sum"));
            }
        }
    }
    Ok(())
}

impl Exposition {
    /// The single sample of an unlabelled family.
    fn value(&self, name: &str) -> f64 {
        let matches: Vec<&Sample> = self.samples.iter().filter(|s| s.name == name).collect();
        assert_eq!(matches.len(), 1, "expected exactly one {name} sample");
        matches[0].value
    }

    /// The sample of `name` carrying every label in `labels`.
    fn labelled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
    }
}

// ---------------------------------------------------------------------
// Tests.

fn stats_field(stats: &str, key: &str) -> u64 {
    Client::stats_field(stats, key).unwrap_or_else(|| panic!("no {key} in {stats}"))
}

#[test]
fn metrics_exposition_parses_and_agrees_with_a_quiesced_stats() {
    let server = Server::start(
        ServerConfig {
            m: 128,
            backend: BackendKind::Sharded { shards: 4 },
            workers: 2,
            flush_every: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        c.add(7).unwrap();
    }
    c.remove(3).unwrap();
    c.batch(&[
        sprofile::Tuple::add(9),
        sprofile::Tuple::add(9),
        sprofile::Tuple::remove(1),
    ])
    .unwrap();
    assert_eq!(c.freq(7).unwrap(), 5); // read barrier: buffers flushed

    // Quiesced: this connection is the only client and STATS/METRICS
    // mutate no counters, so the two views must agree exactly.
    let stats = c.stats().unwrap();
    let text = c.metrics().unwrap();
    let e = parse_exposition(&text).expect("exposition parses");

    for (metric, stats_key) in [
        ("sprofile_connections_accepted_total", "accepted"),
        ("sprofile_connections_active", "active"),
        ("sprofile_worker_conns", "conns"),
        ("sprofile_shed_total", "shed"),
        ("sprofile_adds_total", "adds"),
        ("sprofile_removes_total", "removes"),
        ("sprofile_batches_total", "batches"),
        ("sprofile_batch_tuples_total", "batch_tuples"),
        ("sprofile_applied_total", "applied"),
        ("sprofile_flushes_total", "flushes"),
        ("sprofile_queries_total", "queries"),
        ("sprofile_snapshots_total", "snapshots"),
        ("sprofile_errors_total", "errors"),
        ("sprofile_shards", "shards"),
    ] {
        assert_eq!(
            e.value(metric) as u64,
            stats_field(&stats, stats_key),
            "{metric} vs STATS {stats_key}"
        );
    }
    assert_eq!(e.value("sprofile_universe_m") as u64, 128);
    assert_eq!(e.value("sprofile_readonly") as u64, 0);
    // STATS satellite fields mirror the build-info gauge.
    assert!(stats.contains("uptime_s="), "{stats}");
    let version = env!("CARGO_PKG_VERSION");
    assert!(stats.contains(&format!("version={version}")), "{stats}");
    assert!(stats.contains("build_profile="), "{stats}");
    assert_eq!(
        e.labelled("sprofile_build_info", &[("version", version)]),
        Some(1.0),
        "build info gauge"
    );
    // A plain server still renders the replication and meter families.
    assert_eq!(
        e.labelled("sprofile_repl_role", &[("role", "none")]),
        Some(1.0)
    );
    assert_eq!(e.value("sprofile_shed_per_s"), 0.0);
    assert_eq!(e.value("sprofile_moved_rejects_per_s_ewma"), 0.0);

    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn stats_and_metrics_report_the_effective_shard_count() {
    // (m, requested shards, cluster slices, effective shards): a cluster
    // node rounds its shards up to a multiple of the slice count, then
    // clamps to the universe like a standalone server.
    for (m, requested, slices, want) in [
        (128u32, 8usize, Some(12u32), 12u64),
        (128, 8, None, 8),
        (10, 8, Some(16), 10),
    ] {
        let server = Server::start(
            ServerConfig {
                m,
                backend: BackendKind::Sharded { shards: requested },
                workers: 1,
                cluster: slices.map(|slices| ClusterConfig {
                    slices,
                    node: 0,
                    nodes: vec!["127.0.0.1:0".into()],
                }),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        assert_eq!(server.shards() as u64, want);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats_field(&stats, "shards"), want, "{stats}");
        let e = parse_exposition(&c.metrics().unwrap()).expect("exposition parses");
        assert_eq!(
            e.value("sprofile_shards") as u64,
            want,
            "m={m} slices={slices:?}"
        );
        c.quit().unwrap();
        server.shutdown();
    }
}

#[test]
fn per_verb_histogram_counts_equal_the_ops_sent() {
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..7 {
        c.add(5).unwrap();
    }
    for _ in 0..3 {
        c.remove(9).unwrap();
    }
    c.batch(&[sprofile::Tuple::add(1); 4]).unwrap();
    c.batch(&[sprofile::Tuple::add(2); 5]).unwrap();
    for _ in 0..6 {
        c.freq(5).unwrap();
    }
    c.mode().unwrap();
    c.stats().unwrap();

    let text = c.metrics().unwrap();
    let e = parse_exposition(&text).expect("exposition parses");
    // The in-flight METRICS request itself is counted only when its
    // reply is queued, i.e. *after* this render.
    for (verb, sent) in [
        ("add", 7u64),
        ("rm", 3),
        ("batch", 2),
        ("freq", 6),
        ("mode", 1),
        ("stats", 1),
        ("metrics", 0),
        ("least", 0),
    ] {
        assert_eq!(
            e.labelled("sprofile_request_duration_us_count", &[("verb", verb)]),
            Some(sent as f64),
            "verb {verb}"
        );
    }
    // Every request lands in the parse-phase histogram exactly once:
    // 7 + 3 + 2 + 6 + 1 + 1 = 20 finished requests at render time.
    assert_eq!(
        e.labelled("sprofile_phase_duration_us_count", &[("phase", "parse")]),
        Some(20.0)
    );

    // Binary-mode requests classify into the same histograms (the
    // binary client ships singles as one-tuple BATCH frames).
    let mut b = Client::connect_with(server.local_addr().to_string(), WireProto::Bin).unwrap();
    b.add(5).unwrap();
    b.add(5).unwrap();
    b.freq(5).unwrap();
    let text = c.metrics().unwrap();
    let e = parse_exposition(&text).expect("exposition parses");
    assert_eq!(
        e.labelled("sprofile_request_duration_us_count", &[("verb", "batch")]),
        Some(4.0),
        "binary adds counted as one-tuple batches"
    );
    assert_eq!(
        e.labelled("sprofile_request_duration_us_count", &[("verb", "freq")]),
        Some(7.0),
        "binary freq counted"
    );
    b.quit().unwrap();
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn every_replication_role_exposes_a_valid_exposition() {
    let base = std::env::temp_dir().join(format!("sprofile-obs-roles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary = Server::start(
        ServerConfig {
            m: 32,
            workers: 2,
            flush_every: 1,
            wal: Some(DurabilityConfig::new(base.join("primary"))),
            sync_commit: SyncCommit::Quorum,
            sync_commit_timeout: std::time::Duration::from_millis(200),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let replica = Server::start(
        ServerConfig {
            m: 32,
            workers: 2,
            wal: Some(DurabilityConfig::new(base.join("replica"))),
            replica_of: Some(primary.local_addr().to_string()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    pc.add(3).unwrap();
    pc.freq(3).unwrap();
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    for _ in 0..500 {
        if rc.freq(3).unwrap() == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(rc.freq(3).unwrap(), 1, "replica caught up");

    let pe = parse_exposition(&pc.metrics().unwrap()).expect("primary exposition");
    assert_eq!(
        pe.labelled("sprofile_repl_role", &[("role", "primary")]),
        Some(1.0)
    );
    assert!(pe.value("sprofile_wal_records_total") >= 1.0);
    assert!(pe.value("sprofile_repl_connected") >= 1.0);
    // Quorum sync-commit: the commit-wait histogram renders (and
    // validated above as cumulative) and the state gauge is labelled.
    assert!(
        pe.labelled("sprofile_sync_commit", &[("state", "quorum")]) == Some(1.0)
            || pe.labelled("sprofile_sync_commit", &[("state", "degraded")]) == Some(1.0),
        "sync-commit state gauge"
    );
    assert!(pe.value("sprofile_commit_wait_us_count") >= 1.0);

    let re = parse_exposition(&rc.metrics().unwrap()).expect("replica exposition");
    assert_eq!(
        re.labelled("sprofile_repl_role", &[("role", "replica")]),
        Some(1.0)
    );
    assert_eq!(re.value("sprofile_readonly"), 1.0);
    assert_eq!(re.value("sprofile_repl_lag_lsn"), 0.0);

    // Promote and re-scrape: the role label flips, the page stays valid.
    rc.promote().unwrap();
    let re = parse_exposition(&rc.metrics().unwrap()).expect("promoted exposition");
    assert_eq!(
        re.labelled("sprofile_repl_role", &[("role", "promoted")]),
        Some(1.0)
    );
    assert_eq!(re.value("sprofile_readonly"), 0.0);

    pc.quit().unwrap();
    rc.quit().unwrap();
    primary.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Every span phase the server times, in pipeline order — must match
/// the `phase` label values the exposition renders.
const PHASES: [&str; 9] = [
    "queue",
    "parse",
    "apply",
    "wal_lock_wait",
    "wal_append",
    "fsync",
    "commit_wait",
    "fanout",
    "reply",
];

#[test]
fn phase_histograms_are_count_aligned_and_partition_verb_totals() {
    let dir = std::env::temp_dir().join(format!("sprofile-obs-phases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 1,
            wal: Some(DurabilityConfig {
                sync: SyncPolicy::Always,
                ..DurabilityConfig::new(&dir)
            }),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..12 {
        c.add(i % 8).unwrap();
    }
    c.remove(3).unwrap();
    c.batch(&[sprofile::Tuple::add(1); 5]).unwrap();
    c.freq(1).unwrap();
    c.mode().unwrap();
    let stats = c.stats().unwrap();

    let e = parse_exposition(&c.metrics().unwrap()).expect("exposition parses");
    // Every finished request records *all* phases (zeros included), so
    // the per-phase counts are identical and equal the total number of
    // requests served — which is the sum of the per-verb counts.
    let verb_requests: f64 = e
        .samples
        .iter()
        .filter(|s| s.name == "sprofile_request_duration_us_count")
        .map(|s| s.value)
        .sum();
    assert!(verb_requests >= 17.0, "{verb_requests}");
    for phase in PHASES {
        assert_eq!(
            e.labelled("sprofile_phase_duration_us_count", &[("phase", phase)]),
            Some(verb_requests),
            "phase {phase} count-aligned"
        );
    }
    // The phases partition each request's total exactly (the residual
    // lands in `reply`), so the per-phase sums add up to the per-verb
    // sums — not ≤, equal.
    let verb_total: f64 = e
        .samples
        .iter()
        .filter(|s| s.name == "sprofile_request_duration_us_sum")
        .map(|s| s.value)
        .sum();
    let phase_total: f64 = PHASES
        .iter()
        .map(|p| {
            e.labelled("sprofile_phase_duration_us_sum", &[("phase", p)])
                .unwrap_or_else(|| panic!("phase {p} missing"))
        })
        .sum();
    assert_eq!(phase_total, verb_total, "phase sums partition verb sums");
    // --sync always + flush-every-1 writes: the fsync phase saw real
    // time, and so did the WAL's own fsync histogram.
    assert!(
        e.labelled("sprofile_phase_duration_us_sum", &[("phase", "fsync")]) > Some(0.0),
        "fsync phase accrued time"
    );
    assert!(e.value("sprofile_wal_fsync_duration_us_count") >= 1.0);
    assert!(e.value("sprofile_wal_lock_wait_us_count") >= 1.0);
    assert!(e.value("sprofile_wal_group_batch_tuples_count") >= 1.0);
    // The STATS WAL percentile satellite keys ride along.
    for key in [
        "wal_fsync_p50_us",
        "wal_fsync_p99_us",
        "wal_fsync_max_us",
        "wal_lock_wait_p99_us",
        "wal_group_batch_avg",
    ] {
        assert!(stats.contains(&format!("{key}=")), "{key} in {stats}");
    }
    // Event-loop tick instrumentation renders and has seen ticks.
    assert!(e.value("sprofile_tick_poll_wait_us_count") >= 1.0);
    assert!(e.value("sprofile_conns_per_tick_count") >= 1.0);

    c.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The phase family counts requests: on a quiesced server its `phase`
/// labels are exactly the span phases, all at one count. Write-buffer
/// flushes count flushes, so they are a family of their own.
#[test]
fn phase_family_is_the_span_phases_and_flushes_are_their_own_family() {
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..6 {
        c.add(i).unwrap();
    }
    c.freq(0).unwrap(); // read barrier: the write buffer flushes

    let e = parse_exposition(&c.metrics().unwrap()).expect("exposition parses");
    let counts: Vec<(&str, f64)> = e
        .samples
        .iter()
        .filter(|s| s.name == "sprofile_phase_duration_us_count")
        .map(|s| (s.label("phase").unwrap_or(""), s.value))
        .collect();
    let labels: Vec<&str> = counts.iter().map(|&(phase, _)| phase).collect();
    let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(labels, names, "phase labels");
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "one count across the phase family: {counts:?}"
    );
    assert!(e.value("sprofile_flush_duration_us_count") >= 1.0);

    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn spans_returns_the_slowest_requests_with_phase_breakdowns() {
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 1,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.trace(4242).unwrap();
    for i in 0..20 {
        c.add(i % 16).unwrap();
    }
    c.mode().unwrap();

    let payload = c.spans(0).unwrap();
    assert!(!payload.is_empty(), "flight recorder captured spans");
    let totals: Vec<u64> = payload
        .lines()
        .map(|l| {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix("total_us="))
                .unwrap_or_else(|| panic!("span line without total_us: {l}"))
                .parse()
                .unwrap()
        })
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "spans come slowest-first: {totals:?}"
    );
    for line in payload.lines() {
        assert!(line.contains("verb="), "{line}");
        assert!(line.contains("conn="), "{line}");
    }
    // Requests issued after TRACE carry the id — one slow query is
    // recoverable by its trace straight from the flight recorder.
    assert!(payload.contains("trace=4242"), "{payload}");
    // `SPANS n` keeps only the n slowest — and those spans are still
    // present in a later full dump (the recorder is nowhere near its
    // capacity, so nothing has been evicted in between).
    let top = c.spans(2).unwrap();
    assert_eq!(top.lines().count(), 2, "{top}");
    let full = c.spans(0).unwrap();
    for line in top.lines() {
        assert!(
            full.lines().any(|l| l == line),
            "top span survives in the full dump: {line}"
        );
    }

    c.quit().unwrap();
    server.shutdown();
}

/// A binary `BATCH` goes through the same request steps as a text one,
/// so its slow-op event names the verb, the frame's tuple count and the
/// time spent decoding it. The frame is large enough for its decode to
/// take whole microseconds (spans count in µs; a handful of tuples
/// decodes in less than one in a release build).
#[test]
fn slow_binary_batch_logs_its_items_and_parse_phase() {
    const TUPLES: usize = 4096;
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            slow_ms: Some(0),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut b = Client::connect_with(server.local_addr(), WireProto::Bin).unwrap();
    let batch = vec![sprofile::Tuple::add(3); TUPLES];
    assert_eq!(b.batch(&batch).unwrap(), TUPLES as u64);
    b.quit().unwrap();

    let mut c = Client::connect(server.local_addr()).unwrap();
    let tail = c.logtail(0).unwrap();
    let event = tail
        .lines()
        .find(|l| l.contains("slow op") && l.contains("verb=batch"))
        .unwrap_or_else(|| panic!("no slow batch event in:\n{tail}"));
    assert!(event.contains(&format!("items={TUPLES}")), "{event}");
    assert!(event.contains("parse_us="), "{event}");
    c.quit().unwrap();
    server.shutdown();
}

/// A comment line is no request: it opens no span, so the idle time
/// after it does not land in the next request's latency.
#[test]
fn comment_lines_start_no_request_clock() {
    const IDLE_US: u64 = 100_000;
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.send_line("# keepalive").unwrap();
    std::thread::sleep(std::time::Duration::from_micros(IDLE_US));
    c.mode().unwrap();
    let spans = c.spans(0).unwrap();
    let mode = spans
        .lines()
        .find(|l| l.contains("verb=mode"))
        .unwrap_or_else(|| panic!("no MODE span in:\n{spans}"));
    let total: u64 = mode
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("total_us="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no total in {mode}"));
    assert!(total < IDLE_US, "{mode}");
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn counters_are_monotone_across_scrapes_and_logtail_is_bounded() {
    let server = Server::start(
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.add(1).unwrap();
    let first = parse_exposition(&c.metrics().unwrap()).expect("first scrape");
    for _ in 0..10 {
        c.add(2).unwrap();
    }
    c.freq(2).unwrap();
    let second = parse_exposition(&c.metrics().unwrap()).expect("second scrape");
    for (name, kind) in &second.types {
        if kind != "counter" {
            continue;
        }
        let before = first.value(name);
        let after = second.value(name);
        assert!(
            after >= before,
            "{name} went backwards: {before} -> {after}"
        );
    }
    assert_eq!(
        second.value("sprofile_adds_total") - first.value("sprofile_adds_total"),
        10.0
    );

    // LOGTAIL honours its line bound.
    let tail = c.logtail(2).unwrap();
    assert!(tail.lines().count() <= 2, "{tail}");
    let all = c.logtail(10_000).unwrap();
    assert!(all.lines().count() >= tail.lines().count(), "{all}");

    c.quit().unwrap();
    server.shutdown();
}
