//! The `generate`, `profile`, `watch`, `serve`, and `loadgen`
//! subcommands, written against generic readers/writers so tests drive
//! them with in-memory buffers (the server ones bind ephemeral ports).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use sprofile::{SProfile, SnapshotError, Tuple};
use sprofile_persist::PersistError;
use sprofile_server::{loadgen::thread_tuples, Client, LoadgenConfig, Server, ServerConfig};
use sprofile_streamgen::{Event, StreamConfig};

use crate::textio::{read_events, write_events, ParseError};

/// Options for `generate`.
#[derive(Clone, Debug)]
pub struct GenerateOpts {
    /// Which paper stream (1–3) or Zipf exponent.
    pub stream: StreamChoice,
    /// Universe size.
    pub m: u32,
    /// Number of events.
    pub n: u64,
    /// RNG seed.
    pub seed: u64,
}

/// The stream presets the CLI exposes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamChoice {
    /// Paper Stream1 (uniform/uniform).
    Stream1,
    /// Paper Stream2 (normals).
    Stream2,
    /// Paper Stream3 (normal/lognormal).
    Stream3,
    /// Zipf-skewed adds with the given exponent.
    Zipf(f64),
}

impl StreamChoice {
    /// Parses `1`/`2`/`3`/`zipf:EXP`.
    pub fn parse(s: &str) -> Option<StreamChoice> {
        match s {
            "1" | "stream1" => Some(StreamChoice::Stream1),
            "2" | "stream2" => Some(StreamChoice::Stream2),
            "3" | "stream3" => Some(StreamChoice::Stream3),
            other => {
                let exp = other.strip_prefix("zipf:")?;
                let exp: f64 = exp.parse().ok()?;
                if exp > 0.0 && exp != 1.0 {
                    Some(StreamChoice::Zipf(exp))
                } else {
                    None
                }
            }
        }
    }

    fn config(self, m: u32, seed: u64) -> StreamConfig {
        match self {
            StreamChoice::Stream1 => StreamConfig::stream1(m, seed),
            StreamChoice::Stream2 => StreamConfig::stream2(m, seed),
            StreamChoice::Stream3 => StreamConfig::stream3(m, seed),
            StreamChoice::Zipf(exp) => StreamConfig::zipf(m, exp, seed),
        }
    }
}

/// `generate`: write `n` synthetic events as text.
pub fn generate<W: Write>(opts: &GenerateOpts, out: &mut W) -> std::io::Result<u64> {
    let cfg = opts.stream.config(opts.m, opts.seed);
    write_events(out, cfg.generator().take(opts.n as usize))
}

/// Options for `profile`.
#[derive(Clone, Debug)]
pub struct ProfileOpts {
    /// Universe size; events with ids `>= m` are an error.
    pub m: u32,
    /// How many top entries to print.
    pub top: u32,
    /// Whether to print the histogram.
    pub histogram: bool,
}

/// Errors from the `profile`/`watch` commands.
#[derive(Debug)]
pub enum CommandError {
    /// Event text failed to parse.
    Parse(ParseError),
    /// An event referenced an id outside `0..m`.
    OutOfRange {
        /// The event's object id.
        object: u32,
        /// The configured universe size.
        m: u32,
    },
    /// Writing the report failed.
    Io(std::io::Error),
    /// Snapshot (de)serialisation failed.
    Snapshot(SnapshotError),
    /// The write-ahead log could not be read or written.
    Persist(PersistError),
    /// A server/client operation failed.
    Server(String),
    /// A verification found disagreements (the CLI exits non-zero).
    VerifyFailed(u64),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Parse(e) => write!(f, "{e}"),
            CommandError::OutOfRange { object, m } => {
                write!(f, "object id {object} out of range (m = {m}; raise --m)")
            }
            CommandError::Io(e) => write!(f, "i/o error: {e}"),
            CommandError::Snapshot(e) => write!(f, "{e}"),
            CommandError::Persist(e) => write!(f, "{e}"),
            CommandError::Server(msg) => write!(f, "{msg}"),
            CommandError::VerifyFailed(n) => write!(f, "verification failed: {n} mismatch(es)"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<ParseError> for CommandError {
    fn from(e: ParseError) -> Self {
        CommandError::Parse(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<SnapshotError> for CommandError {
    fn from(e: SnapshotError) -> Self {
        CommandError::Snapshot(e)
    }
}

impl From<PersistError> for CommandError {
    fn from(e: PersistError) -> Self {
        CommandError::Persist(e)
    }
}

fn apply_checked(p: &mut SProfile, e: &Event) -> Result<(), CommandError> {
    if e.object >= p.num_objects() {
        return Err(CommandError::OutOfRange {
            object: e.object,
            m: p.num_objects(),
        });
    }
    e.apply_to(p);
    Ok(())
}

/// Snapshot persistence flags for `profile`.
#[derive(Clone, Debug, Default)]
pub struct PersistOpts {
    /// Seed the profile from this snapshot instead of a fresh universe
    /// (the universe size then comes from the snapshot, not `--m`).
    pub load: Option<String>,
    /// After applying the input events, write a snapshot here.
    pub save: Option<String>,
}

/// `profile`: consume an event file and print a statistics report.
/// Equivalent to [`profile_persist`] without persistence (the binary
/// always goes through the persisting variant; tests use this directly).
#[cfg_attr(not(test), allow(dead_code))]
pub fn profile<R: BufRead, W: Write>(
    opts: &ProfileOpts,
    input: R,
    out: &mut W,
) -> Result<(), CommandError> {
    profile_persist(opts, &PersistOpts::default(), input, out)
}

/// `profile` with snapshot persistence: `--load` restores the starting
/// state through [`SProfile::read_snapshot`] (the same core code path
/// the TCP server's `SNAPSHOT` command writes), events are applied on
/// top, and `--save` persists the result.
pub fn profile_persist<R: BufRead, W: Write>(
    opts: &ProfileOpts,
    persist: &PersistOpts,
    input: R,
    out: &mut W,
) -> Result<(), CommandError> {
    let events = read_events(input)?;
    let mut p = match &persist.load {
        Some(path) => {
            let file = std::fs::File::open(Path::new(path))?;
            SProfile::read_snapshot(&mut BufReader::new(file))?
        }
        None => SProfile::new(opts.m),
    };
    for e in &events {
        apply_checked(&mut p, e)?;
    }
    report(opts, &p, events.len() as u64, out)?;
    if let Some(path) = &persist.save {
        let file = std::fs::File::create(Path::new(path))?;
        let mut w = BufWriter::new(file);
        p.write_snapshot(&mut w)?;
        w.flush()?;
        writeln!(
            out,
            "snapshot:          {} objects -> {path}",
            p.num_objects()
        )?;
    }
    Ok(())
}

/// `ingest`: like `profile`, but reads the input in chunks and applies
/// each chunk through the batched ingestion fast path
/// ([`SProfile::apply_batch`]) — the CLI shape of a firehose consumer.
/// Lines are parsed and validated as they stream in; large chunks hit
/// the counting-sort bulk-rebuild path instead of per-tuple updates.
pub fn ingest<R: BufRead, W: Write>(
    opts: &ProfileOpts,
    chunk_size: usize,
    input: R,
    out: &mut W,
) -> Result<(), CommandError> {
    debug_assert!(chunk_size > 0, "caller validates --chunk");
    let mut p = SProfile::new(opts.m);
    let mut buffer: Vec<Tuple> = Vec::with_capacity(chunk_size);
    let mut total = 0u64;
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(CommandError::Io)?;
        let Some(e) = crate::textio::parse_line(&line, i + 1)? else {
            continue;
        };
        if e.object >= opts.m {
            return Err(CommandError::OutOfRange {
                object: e.object,
                m: opts.m,
            });
        }
        buffer.push(Tuple {
            object: e.object,
            is_add: e.is_add,
        });
        if buffer.len() >= chunk_size {
            total += p.apply_batch(&buffer);
            buffer.clear();
        }
    }
    total += p.apply_batch(&buffer);
    report(opts, &p, total, out)
}

/// The shared statistics report of `profile` and `ingest`.
fn report<W: Write>(
    opts: &ProfileOpts,
    p: &SProfile,
    events: u64,
    out: &mut W,
) -> Result<(), CommandError> {
    writeln!(out, "events:            {events}")?;
    writeln!(out, "net length:        {}", p.len())?;
    writeln!(out, "distinct active:   {}", p.distinct_active())?;
    writeln!(out, "distinct freqs:    {}", p.num_blocks())?;
    if let Some(mode) = p.mode() {
        writeln!(
            out,
            "mode:              object {} at {} ({} tied)",
            mode.object, mode.frequency, mode.count
        )?;
    }
    if let Some(least) = p.least() {
        writeln!(
            out,
            "least:             object {} at {} ({} tied)",
            least.object, least.frequency, least.count
        )?;
    }
    if let Some(median) = p.median() {
        writeln!(out, "median frequency:  {median}")?;
    }
    if let Some(s) = p.summary() {
        writeln!(out, "mean/std:          {:.3} / {:.3}", s.mean, s.std_dev())?;
        writeln!(out, "entropy (nats):    {:.4}", s.entropy)?;
        writeln!(out, "gini:              {:.4}", s.gini)?;
    }
    if opts.top > 0 {
        writeln!(out, "top {}:", opts.top)?;
        for (rank, (obj, f)) in p.top_k(opts.top).into_iter().enumerate() {
            writeln!(out, "  {:>3}. object {:>10}  freq {}", rank + 1, obj, f)?;
        }
    }
    if opts.histogram {
        writeln!(out, "histogram (freq count):")?;
        for b in p.histogram() {
            writeln!(out, "  {:>12} {}", b.frequency, b.count)?;
        }
    }
    Ok(())
}

/// Options for `hh` (heavy hitters: exact vs Space-Saving).
#[derive(Clone, Debug)]
pub struct HhOpts {
    /// Universe size; events with ids `>= m` are an error.
    pub m: u32,
    /// Space-Saving counter budget.
    pub counters: usize,
    /// Heavy-hitter threshold as a fraction of the add count.
    pub phi: f64,
}

/// `hh`: run the exact profile and a Space-Saving sketch side by side on
/// the *add* events of the input, then report the φ-heavy hitters of
/// both with the sketch's error bars. Removes are tallied but skipped —
/// the point of the report is showing what the o(m)-space sketch can and
/// cannot see (removes are in the "cannot" column by construction).
pub fn heavy_hitters<R: BufRead, W: Write>(
    opts: &HhOpts,
    input: R,
    out: &mut W,
) -> Result<(), CommandError> {
    use sprofile_sketches::SpaceSaving;

    let events = read_events(input)?;
    let mut exact = SProfile::new(opts.m);
    let mut sketch = SpaceSaving::new(opts.counters.max(1));
    let mut adds = 0u64;
    let mut removes_skipped = 0u64;
    for e in &events {
        if e.object >= opts.m {
            return Err(CommandError::OutOfRange {
                object: e.object,
                m: opts.m,
            });
        }
        if e.is_add {
            exact.add(e.object);
            sketch.observe(e.object);
            adds += 1;
        } else {
            removes_skipped += 1;
        }
    }
    let threshold = (opts.phi * adds as f64) as i64;
    writeln!(out, "adds:              {adds}")?;
    if removes_skipped > 0 {
        writeln!(
            out,
            "removes skipped:   {removes_skipped} (insert-only sketches cannot process them)"
        )?;
    }
    writeln!(
        out,
        "phi = {} -> threshold {threshold} occurrences",
        opts.phi
    )?;
    writeln!(out, "exact phi-heavy hitters (S-Profile, O(m) space):")?;
    let mut exact_hitters = 0u32;
    for (obj, f) in exact.iter_descending() {
        if f <= threshold {
            break;
        }
        writeln!(out, "  object {obj:>10}  freq {f}")?;
        exact_hitters += 1;
    }
    if exact_hitters == 0 {
        writeln!(out, "  (none)")?;
    }
    writeln!(
        out,
        "sketch candidates (Space-Saving, {} counters):",
        opts.counters.max(1)
    )?;
    let candidates = sketch.heavy_hitters(opts.phi.clamp(1e-9, 1.0 - 1e-9));
    for &(obj, count, err) in &candidates {
        let certain = count.saturating_sub(err) as i64 > threshold;
        writeln!(
            out,
            "  object {obj:>10}  count {count} (err <= {err}){}",
            if certain {
                "  [guaranteed]"
            } else {
                "  [possible]"
            }
        )?;
    }
    if candidates.is_empty() {
        writeln!(out, "  (none)")?;
    }
    Ok(())
}

/// `serve`: run the TCP server on `addr` until a client sends
/// `SHUTDOWN`. The listening line (with the resolved address) is flushed
/// to `out` before blocking, so callers scripting against `:0` can
/// scrape the port.
pub fn serve<W: Write>(addr: &str, config: ServerConfig, out: &mut W) -> Result<(), CommandError> {
    let server = Server::start(config.clone(), addr)?;
    // The effective counts: a cluster node aligns its shards to its
    // slices, and it and a sync-commit primary flush every write.
    let shards = server.shards();
    let wal = match &config.wal {
        Some(w) => format!(" wal={} sync={}", w.dir.display(), w.sync.name()),
        None => String::new(),
    };
    let role = match &config.replica_of {
        Some(primary) => format!(" replica-of={primary} (readonly until PROMOTE)"),
        None => String::new(),
    };
    let sync = if config.sync_commit.is_on() {
        format!(" sync-commit={}", config.sync_commit.name())
    } else {
        String::new()
    };
    let elect = match &config.failover {
        Some(f) => format!(" auto-failover={}", f.peers.join(",")),
        None => String::new(),
    };
    let cluster = match &config.cluster {
        Some(c) => format!(
            " cluster=node {}/{} slices={}",
            c.node,
            c.nodes.len(),
            c.slices
        ),
        None => String::new(),
    };
    let log = match config.obs.level {
        Some(l) => format!(" log={}/{}", l.name(), config.obs.format.name()),
        None => " log=off".to_string(),
    };
    let metrics = match &config.metrics_addr {
        Some(addr) => format!(" metrics=http://{addr}/metrics"),
        None => String::new(),
    };
    writeln!(
        out,
        "listening on {} backend=sharded({shards}) m={} workers={} max-conns={} \
         flush={}{wal}{role}{sync}{elect}{cluster}{log}{metrics}",
        server.local_addr(),
        config.m,
        config.workers,
        config.max_conns,
        server.flush_every()
    )?;
    out.flush()?;
    let applied = server.wait();
    writeln!(out, "shutdown: {applied} tuples applied")?;
    Ok(())
}

/// `loadgen`: drive a running server with concurrent clients and report
/// throughput; with `shutdown`, send `SHUTDOWN` afterwards (the CI smoke
/// job uses that to stop the background `serve`).
pub fn loadgen<W: Write>(
    cfg: &LoadgenConfig,
    shutdown: bool,
    out: &mut W,
) -> Result<(), CommandError> {
    let report =
        sprofile_server::loadgen::run(cfg).map_err(|e| CommandError::Server(e.to_string()))?;
    writeln!(out, "threads:     {}", cfg.threads)?;
    writeln!(out, "proto:       {}", cfg.proto.name())?;
    writeln!(out, "tuples sent: {}", report.tuples_sent)?;
    writeln!(
        out,
        "frames:      {} batches (x{}) + {} singles",
        report.batches_sent, cfg.batch, report.singles_sent
    )?;
    writeln!(out, "elapsed:     {:.3} s", report.elapsed.as_secs_f64())?;
    writeln!(out, "throughput:  {:.0} tuples/s", report.tuples_per_sec())?;
    writeln!(
        out,
        "latency:     p50={}us p99={}us p999={}us max={}us ({} requests)",
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.p999_us,
        report.latency.max_us,
        report.latency.samples
    )?;
    writeln!(out, "server:      {}", report.final_stats)?;
    if shutdown {
        Client::connect_with(cfg.addr.as_str(), cfg.proto)
            .and_then(Client::shutdown_server)
            .map_err(|e| CommandError::Server(e.to_string()))?;
        writeln!(out, "sent SHUTDOWN")?;
    }
    Ok(())
}

/// `promote`: flip a running replica writable at its applied LSN — the
/// failover step after the primary dies (pair with monitoring
/// `repl_lag_lsn` in `STATS` if no acknowledged write may be lost).
pub fn promote<W: Write>(addr: &str, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let (lsn, epoch) = client
        .promote()
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    writeln!(
        out,
        "promoted at lsn {lsn} epoch {epoch}: {addr} now accepts writes"
    )?;
    Ok(())
}

/// `migrate`: hand a hash slice from the node at `addr` (which must own
/// it) to another cluster node — a live rebalance: the owner ships the
/// slice's frequencies (again after the flip if they changed), bumps
/// the partition map version, and stale-map clients redirect via
/// `ERR moved`.
/// With `trace != 0` the connection is tagged first, so the hand-off's
/// events land in every involved node's ring under that id (recover
/// them with `sprofile logtail`).
pub fn migrate<W: Write>(
    addr: &str,
    slice: u32,
    target: u32,
    trace: u64,
    out: &mut W,
) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    if trace != 0 {
        client
            .trace(trace)
            .map_err(|e| CommandError::Server(e.to_string()))?;
    }
    let version = client
        .migrate(slice, target)
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    writeln!(
        out,
        "migrated slice {slice} to node {target}: partition map now version {version}"
    )?;
    Ok(())
}

/// `map`: print the partition map a cluster node is serving under.
pub fn map_show<W: Write>(addr: &str, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let map = client
        .map()
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    writeln!(out, "version: {}", map.version)?;
    writeln!(out, "slices:  {}", map.slices)?;
    for (i, addr) in map.nodes.iter().enumerate() {
        let owned: Vec<String> = map
            .owners
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == i)
            .map(|(s, _)| s.to_string())
            .collect();
        writeln!(out, "node {i}: {addr} owns [{}]", owned.join(", "))?;
    }
    Ok(())
}

/// `stats`: print a server's `STATS` line once.
pub fn stats_show<W: Write>(addr: &str, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let stats = client
        .stats()
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    writeln!(out, "{stats}")?;
    Ok(())
}

/// `stats --watch`: poll `STATS` every `every_ms` and print the *deltas*
/// of the numeric fields — a poor man's top for a live server. The
/// `uptime_s` and `repl_beats` clocks are only in the first, absolute
/// line: they move on an idle server (and replica) too, so an interval
/// with no other change prints `(idle)`. Stops after `count` samples when given (the CLI default
/// runs until the server goes away or the user interrupts).
pub fn stats_watch<W: Write>(
    addr: &str,
    every_ms: u64,
    count: Option<u64>,
    out: &mut W,
) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let mut prev: Vec<(String, i64)> = Vec::new();
    let mut sample = 0u64;
    loop {
        let stats = client
            .stats()
            .map_err(|e| CommandError::Server(e.to_string()))?;
        let fields: Vec<(String, i64)> = stats
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter(|(k, _)| !matches!(*k, "uptime_s" | "repl_beats"))
            .filter_map(|(k, v)| v.parse::<i64>().ok().map(|n| (k.to_string(), n)))
            .collect();
        sample += 1;
        if prev.is_empty() {
            // First sample: the absolute line, as a baseline.
            writeln!(out, "[{sample}] {stats}")?;
        } else {
            let mut deltas = String::new();
            for (k, now) in &fields {
                let Some((_, was)) = prev.iter().find(|(pk, _)| pk == k) else {
                    continue;
                };
                if now != was {
                    deltas.push_str(&format!(" {k}{:+}", now - was));
                }
            }
            if deltas.is_empty() {
                writeln!(out, "[{sample}] (idle)")?;
            } else {
                writeln!(out, "[{sample}]{deltas}")?;
            }
        }
        out.flush()?;
        prev = fields;
        if count.is_some_and(|c| sample >= c) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(every_ms.max(1)));
    }
    client.quit().ok();
    Ok(())
}

/// `logtail`: print the last `n` events of a server's in-memory log
/// ring — post-incident forensics without any log file configured.
pub fn logtail_show<W: Write>(addr: &str, n: usize, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let tail = client
        .logtail(n)
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    write!(out, "{tail}")?;
    Ok(())
}

/// `metrics`: print a server's Prometheus text exposition (the same
/// payload `GET /metrics` serves when `--metrics-addr` is set).
pub fn metrics_show<W: Write>(addr: &str, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let payload = client
        .metrics()
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    write!(out, "{payload}")?;
    Ok(())
}

/// `spans`: dump a server's span flight recorder — the slowest recent
/// requests, one logfmt line each, with their per-phase timings.
pub fn spans_show<W: Write>(addr: &str, n: usize, out: &mut W) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let payload = client
        .spans(n)
        .map_err(|e| CommandError::Server(e.to_string()))?;
    client.quit().ok();
    write!(out, "{payload}")?;
    Ok(())
}

/// One scrape's worth of per-verb and per-phase histogram readings,
/// parsed out of the `METRICS` exposition for [`top_watch`]'s deltas.
#[derive(Clone, Debug, Default)]
struct TopSample {
    /// `(verb, count, sum_us)` per `sprofile_request_duration_us` series.
    verbs: Vec<(String, u64, u64)>,
    /// `(phase, sum_us)` per `sprofile_phase_duration_us` series.
    phases: Vec<(String, u64)>,
}

/// Parses one `name{key="label"} value` exposition line.
fn prom_labelled(line: &str, name: &str, key: &str) -> Option<(String, u64)> {
    let rest = line.strip_prefix(name)?.strip_prefix('{')?;
    let (labels, value) = rest.split_once("} ")?;
    let label = labels
        .strip_prefix(key)?
        .strip_prefix("=\"")?
        .strip_suffix('"')?;
    Some((label.to_string(), value.trim().parse().ok()?))
}

impl TopSample {
    /// Scrapes the per-verb counts/sums and per-phase sums out of one
    /// `METRICS` payload. Verbs and phases are discovered from the
    /// payload itself, so the view never goes stale against the server.
    fn parse(payload: &str) -> TopSample {
        let mut counts = Vec::new();
        let mut sums = Vec::new();
        let mut phases = Vec::new();
        for line in payload.lines() {
            if let Some(kv) = prom_labelled(line, "sprofile_request_duration_us_count", "verb") {
                counts.push(kv);
            } else if let Some(kv) = prom_labelled(line, "sprofile_request_duration_us_sum", "verb")
            {
                sums.push(kv);
            } else if let Some(kv) = prom_labelled(line, "sprofile_phase_duration_us_sum", "phase")
            {
                phases.push(kv);
            }
        }
        let verbs = counts
            .into_iter()
            .map(|(verb, count)| {
                let sum = sums.iter().find(|(v, _)| *v == verb).map_or(0, |&(_, s)| s);
                (verb, count, sum)
            })
            .collect();
        TopSample { verbs, phases }
    }
}

/// Renders one `top` frame: the interval's per-verb throughput and
/// mean latency, the phase breakdown of where that time went, and the
/// WAL percentile gauges from `STATS`.
fn render_top<W: Write>(
    out: &mut W,
    addr: &str,
    sample: u64,
    every_ms: u64,
    prev: &TopSample,
    cur: &TopSample,
    stats: &str,
) -> Result<(), CommandError> {
    writeln!(
        out,
        "sprofile top — {addr} — sample {sample} ({every_ms} ms interval)"
    )?;
    let secs = (every_ms.max(1) as f64) / 1000.0;
    writeln!(
        out,
        "  {:<10} {:>8} {:>10} {:>10}",
        "verb", "ops", "ops/s", "avg_us"
    )?;
    let mut any = false;
    for (verb, count, sum) in &cur.verbs {
        let (was_count, was_sum) = prev
            .verbs
            .iter()
            .find(|(v, _, _)| v == verb)
            .map_or((0, 0), |&(_, c, s)| (c, s));
        let ops = count.saturating_sub(was_count);
        if ops == 0 {
            continue;
        }
        any = true;
        let us = sum.saturating_sub(was_sum);
        writeln!(
            out,
            "  {:<10} {:>8} {:>10.0} {:>10.0}",
            verb,
            ops,
            ops as f64 / secs,
            us as f64 / ops as f64
        )?;
    }
    if !any {
        writeln!(out, "  (idle)")?;
    }
    // Phase breakdown: each phase's share of the interval's total
    // request time.
    let deltas: Vec<(&str, u64)> = cur
        .phases
        .iter()
        .map(|(phase, sum)| {
            let was = prev
                .phases
                .iter()
                .find(|(p, _)| p == phase)
                .map_or(0, |&(_, s)| s);
            (phase.as_str(), sum.saturating_sub(was))
        })
        .collect();
    let total: u64 = deltas.iter().map(|&(_, d)| d).sum();
    if total > 0 {
        writeln!(out, "  {:<14} {:>10} {:>7}", "phase", "time_us", "share")?;
        for (phase, d) in deltas {
            if d == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<14} {:>10} {:>6.1}%",
                phase,
                d,
                100.0 * d as f64 / total as f64
            )?;
        }
    }
    let wal: Vec<&str> = stats
        .split_whitespace()
        .filter(|kv| {
            kv.starts_with("wal_fsync_")
                || kv.starts_with("wal_lock_wait_")
                || kv.starts_with("wal_group_batch_")
        })
        .collect();
    if !wal.is_empty() {
        writeln!(out, "  wal: {}", wal.join(" "))?;
    }
    Ok(())
}

/// `top`: a live per-verb / per-phase view of a running server, built
/// from interval deltas of the `METRICS` histograms (plus the WAL
/// percentile gauges out of `STATS`). `clear` redraws in place with
/// ANSI clears (set when stdout is a terminal); otherwise frames
/// append, which keeps the output pipeable.
pub fn top_watch<W: Write>(
    addr: &str,
    every_ms: u64,
    count: Option<u64>,
    clear: bool,
    out: &mut W,
) -> Result<(), CommandError> {
    let mut client = Client::connect(addr).map_err(|e| CommandError::Server(e.to_string()))?;
    let mut prev: Option<TopSample> = None;
    let mut sample = 0u64;
    loop {
        let metrics = client
            .metrics()
            .map_err(|e| CommandError::Server(e.to_string()))?;
        let stats = client
            .stats()
            .map_err(|e| CommandError::Server(e.to_string()))?;
        let cur = TopSample::parse(&metrics);
        sample += 1;
        if clear {
            write!(out, "\x1b[2J\x1b[H")?;
        }
        match &prev {
            Some(prev) => render_top(out, addr, sample, every_ms, prev, &cur, &stats)?,
            None => writeln!(out, "sprofile top — {addr} — collecting baseline…")?,
        }
        out.flush()?;
        prev = Some(cur);
        if count.is_some_and(|c| sample >= c) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(every_ms.max(1)));
    }
    client.quit().ok();
    Ok(())
}

/// `recover`: rebuild the profile a WAL directory persists (newest valid
/// checkpoint + record tail) and print the same statistics report as
/// `profile` — the offline answer to "what state would a `serve --wal`
/// restart come back with?".
pub fn recover_report<W: Write>(
    dir: &Path,
    m: u32,
    top: u32,
    out: &mut W,
) -> Result<(), CommandError> {
    let r = sprofile_persist::recover(dir, m)?;
    writeln!(out, "wal dir:           {}", dir.display())?;
    match r.checkpoint_lsn {
        Some(lsn) => writeln!(out, "checkpoint:        lsn {lsn}")?,
        None => writeln!(out, "checkpoint:        none (full replay)")?,
    }
    writeln!(
        out,
        "replayed:          {} record(s), {} tuple(s)",
        r.replayed_records, r.replayed_tuples
    )?;
    writeln!(out, "next lsn:          {}", r.next_lsn)?;
    if r.torn_tail {
        writeln!(
            out,
            "torn tail:         yes (crash signature; tail record dropped)"
        )?;
    }
    report(
        &ProfileOpts {
            m,
            top,
            histogram: false,
        },
        &r.profile,
        r.replayed_tuples,
        out,
    )
}

/// `wal-dump`: print every record still present in the WAL directory's
/// segments, one line per record (`lsn`, the replication epoch stamped
/// into the record, tuple count, then the tuples in event-file
/// notation, elided past eight).
pub fn wal_dump<W: Write>(dir: &Path, limit: usize, out: &mut W) -> Result<(), CommandError> {
    let (records, torn) = sprofile_persist::dump_records(dir)?;
    let total = records.len();
    for r in records.into_iter().take(limit) {
        write!(
            out,
            "{:>8}  e{:<4} {:>6} tuple(s) ",
            r.lsn,
            r.epoch,
            r.tuples.len()
        )?;
        for t in r.tuples.iter().take(8) {
            write!(out, " {}{}", if t.is_add { 'a' } else { 'r' }, t.object)?;
        }
        if r.tuples.len() > 8 {
            write!(out, " …")?;
        }
        writeln!(out)?;
    }
    if total > limit {
        writeln!(out, "… {} more record(s) (raise --limit)", total - limit)?;
    }
    writeln!(
        out,
        "{total} record(s){}",
        if torn { ", torn tail" } else { "" }
    )?;
    Ok(())
}

/// `checkpoint`: offline compaction — recover the WAL directory, write a
/// fresh checkpoint at its head, and prune the segments it covers. The
/// next `serve --wal`/`recover` then skips the replay.
pub fn checkpoint_compact<W: Write>(dir: &Path, m: u32, out: &mut W) -> Result<(), CommandError> {
    let r = sprofile_persist::recover(dir, m)?;
    let mut wal = sprofile_persist::Wal::open(
        sprofile_persist::WalOptions {
            dir: dir.to_path_buf(),
            ..Default::default()
        },
        r.next_lsn,
    )?;
    let lsn = wal.checkpoint(&r.profile.to_snapshot_bytes())?;
    writeln!(
        out,
        "checkpoint written at lsn {lsn} ({} replayed record(s) folded in)",
        r.replayed_records
    )?;
    Ok(())
}

/// `verify`: the client-side oracle check. Recomputes the deterministic
/// tuple streams `loadgen` sends for `cfg` (same seed/threads/n/m),
/// folds them into an offline [`SProfile`] oracle, then asks the live
/// server for the frequency of every touched object plus the mode — the
/// crash-recovery smoke test's way of proving a restarted `serve --wal`
/// really recovered the acknowledged stream.
pub fn verify_server<W: Write>(cfg: &LoadgenConfig, out: &mut W) -> Result<(), CommandError> {
    let mut oracle = SProfile::new(cfg.m);
    for t in 0..cfg.threads.max(1) {
        for tuple in thread_tuples(cfg, t) {
            oracle.apply(tuple);
        }
    }
    let touched: Vec<u32> = (0..cfg.m).filter(|&x| oracle.frequency(x) != 0).collect();
    // Also sample objects the oracle holds at zero (never touched, or
    // adds/removes cancelled): a recovery bug that *invents* tuples
    // would otherwise slip past a touched-only sweep.
    let step = (cfg.m as usize / 1024).max(1);
    let zeros: Vec<u32> = (0..cfg.m)
        .step_by(step)
        .filter(|&x| oracle.frequency(x) == 0)
        .take(1024)
        .collect();
    let mut client = Client::connect_with(cfg.addr.as_str(), cfg.proto)
        .map_err(|e| CommandError::Server(e.to_string()))?;
    let mut mismatches = 0u64;
    for &x in touched.iter().chain(&zeros) {
        let got = client
            .freq(x)
            .map_err(|e| CommandError::Server(e.to_string()))?;
        let want = oracle.frequency(x);
        if got != want {
            mismatches += 1;
            if mismatches <= 10 {
                writeln!(out, "MISMATCH object {x}: server {got}, oracle {want}")?;
            }
        }
    }
    let mode = client
        .mode()
        .map_err(|e| CommandError::Server(e.to_string()))?;
    let oracle_mode = oracle.mode().map(|e| e.frequency);
    if mode.map(|(_, f)| f) != oracle_mode {
        mismatches += 1;
        writeln!(
            out,
            "MISMATCH mode: server {mode:?}, oracle frequency {oracle_mode:?}"
        )?;
    }
    client.quit().ok();
    if mismatches > 0 {
        return Err(CommandError::VerifyFailed(mismatches));
    }
    writeln!(
        out,
        "verify: OK ({} nonzero + {} zero object(s) checked against the oracle)",
        touched.len(),
        zeros.len()
    )?;
    Ok(())
}

/// `watch`: stream events, printing the mode + top entries every `every`
/// events (the paper's "at any time" query pattern).
pub fn watch<R: BufRead, W: Write>(
    m: u32,
    every: u64,
    top: u32,
    input: R,
    out: &mut W,
) -> Result<u64, CommandError> {
    let mut p = SProfile::new(m);
    let mut count = 0u64;
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(CommandError::Io)?;
        let Some(e) = crate::textio::parse_line(&line, i + 1)? else {
            continue;
        };
        apply_checked(&mut p, &e)?;
        count += 1;
        if count.is_multiple_of(every) {
            let mode = p.mode().expect("m > 0");
            write!(
                out,
                "[{count}] mode={} f={} top:",
                mode.object, mode.frequency
            )?;
            for (obj, f) in p.top_k(top) {
                write!(out, " {obj}:{f}")?;
            }
            writeln!(out)?;
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprofile_server::{BackendKind, ClusterConfig, DurabilityConfig, ObsConfig, WireProto};
    use std::io::Cursor;

    #[test]
    fn stream_choice_parsing() {
        assert_eq!(StreamChoice::parse("1"), Some(StreamChoice::Stream1));
        assert_eq!(StreamChoice::parse("stream2"), Some(StreamChoice::Stream2));
        assert_eq!(StreamChoice::parse("3"), Some(StreamChoice::Stream3));
        assert_eq!(
            StreamChoice::parse("zipf:1.5"),
            Some(StreamChoice::Zipf(1.5))
        );
        assert_eq!(StreamChoice::parse("zipf:1.0"), None);
        assert_eq!(StreamChoice::parse("zipf:x"), None);
        assert_eq!(StreamChoice::parse("4"), None);
    }

    #[test]
    fn top_sample_parses_verb_and_phase_series() {
        let payload = "\
sprofile_request_duration_us_bucket{verb=\"add\",le=\"16\"} 1\n\
sprofile_request_duration_us_sum{verb=\"add\"} 900\n\
sprofile_request_duration_us_count{verb=\"add\"} 10\n\
sprofile_request_duration_us_sum{verb=\"mode\"} 40\n\
sprofile_request_duration_us_count{verb=\"mode\"} 2\n\
sprofile_phase_duration_us_sum{phase=\"parse\"} 300\n\
sprofile_phase_duration_us_count{phase=\"parse\"} 12\n\
sprofile_phase_duration_us_sum{phase=\"fsync\"} 600\n\
sprofile_phase_duration_us_sum{phase=\"reply\"} 600\n\
sprofile_uptime_seconds 3\n";
        let s = TopSample::parse(payload);
        assert_eq!(s.verbs.len(), 2, "{:?}", s.verbs);
        assert!(s.verbs.contains(&("add".into(), 10, 900)));
        assert!(s.verbs.contains(&("mode".into(), 2, 40)));
        assert_eq!(s.phases.len(), 3, "{:?}", s.phases);
        assert!(s.phases.contains(&("fsync".into(), 600)));
    }

    #[test]
    fn render_top_shows_interval_deltas_and_phase_shares() {
        let prev = TopSample {
            verbs: vec![("add".into(), 10, 900), ("mode".into(), 2, 40)],
            phases: vec![("parse".into(), 300), ("fsync".into(), 600)],
        };
        let cur = TopSample {
            verbs: vec![("add".into(), 30, 2900), ("mode".into(), 2, 40)],
            phases: vec![("parse".into(), 800), ("fsync".into(), 2100)],
        };
        let mut out = Vec::new();
        render_top(
            &mut out,
            "addr:1",
            2,
            1000,
            &prev,
            &cur,
            "m=8 wal_fsync_p99_us=120 wal_group_batch_avg=3",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // 20 adds in 1 s at (2900-900)/20 = 100 µs mean.
        assert!(
            text.contains("add              20         20        100"),
            "{text}"
        );
        // An idle verb renders no row.
        assert!(!text.contains("mode"), "{text}");
        // Phase deltas: parse 500 of 2000 total = 25%, fsync 75%.
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("25.0%"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        // The WAL gauges ride along from STATS.
        assert!(
            text.contains("wal: wal_fsync_p99_us=120 wal_group_batch_avg=3"),
            "{text}"
        );
    }

    #[test]
    fn generate_then_profile_roundtrip() {
        let opts = GenerateOpts {
            stream: StreamChoice::Stream1,
            m: 50,
            n: 1000,
            seed: 9,
        };
        let mut text = Vec::new();
        let n = generate(&opts, &mut text).unwrap();
        assert_eq!(n, 1000);

        let mut report = Vec::new();
        profile(
            &ProfileOpts {
                m: 50,
                top: 3,
                histogram: true,
            },
            Cursor::new(&text),
            &mut report,
        )
        .unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(report.contains("events:            1000"));
        assert!(report.contains("mode:"));
        assert!(report.contains("top 3:"));
        assert!(report.contains("histogram"));
    }

    #[test]
    fn generate_is_deterministic() {
        let opts = GenerateOpts {
            stream: StreamChoice::Zipf(1.3),
            m: 20,
            n: 100,
            seed: 42,
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        generate(&opts, &mut a).unwrap();
        generate(&opts, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ingest_matches_profile_report_for_any_chunk_size() {
        let opts = GenerateOpts {
            stream: StreamChoice::Stream2,
            m: 40,
            n: 2_000,
            seed: 31,
        };
        let mut text = Vec::new();
        generate(&opts, &mut text).unwrap();
        let popts = ProfileOpts {
            m: 40,
            top: 5,
            histogram: true,
        };
        let mut reference = Vec::new();
        profile(&popts, Cursor::new(&text), &mut reference).unwrap();
        for chunk in [1usize, 7, 256, 100_000] {
            let mut got = Vec::new();
            ingest(&popts, chunk, Cursor::new(&text), &mut got).unwrap();
            assert_eq!(
                String::from_utf8(got).unwrap(),
                String::from_utf8(reference.clone()).unwrap(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn ingest_rejects_out_of_range_before_applying() {
        let err = ingest(
            &ProfileOpts {
                m: 3,
                top: 0,
                histogram: false,
            },
            64,
            Cursor::new("a 0\na 9\n"),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn profile_rejects_out_of_range_ids() {
        let text = "a 5\n";
        let err = profile(
            &ProfileOpts {
                m: 3,
                top: 0,
                histogram: false,
            },
            Cursor::new(text),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn profile_reports_known_statistics() {
        let text = "a 1\na 1\na 1\na 2\nr 0\n";
        let mut report = Vec::new();
        profile(
            &ProfileOpts {
                m: 4,
                top: 2,
                histogram: false,
            },
            Cursor::new(text),
            &mut report,
        )
        .unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(report.contains("net length:        3"));
        assert!(report.contains("mode:              object 1 at 3"));
        assert!(report.contains("least:             object 0 at -1"));
    }

    #[test]
    fn watch_emits_periodic_lines() {
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!("a {}\n", i % 3));
        }
        let mut out = Vec::new();
        let n = watch(3, 4, 2, Cursor::new(text), &mut out).unwrap();
        assert_eq!(n, 10);
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "reports at events 4 and 8");
        assert!(lines[0].starts_with("[4] mode="));
        assert!(lines[1].starts_with("[8] mode="));
    }

    #[test]
    fn watch_propagates_parse_errors() {
        let err = watch(3, 1, 1, Cursor::new("a 0\njunk\n"), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CommandError::Parse(_)));
    }

    #[test]
    fn hh_reports_exact_and_sketch_sides() {
        // Object 1 takes 60 of 100 adds; phi = 0.5 picks exactly it.
        let mut text = String::new();
        for i in 0..100 {
            // The tail ids 3..10 never collide with the hitter (object 1).
            text.push_str(&format!("a {}\n", if i % 5 < 3 { 1 } else { 3 + i % 7 }));
        }
        text.push_str("r 1\n"); // one remove: must be skipped & reported
        let mut out = Vec::new();
        heavy_hitters(
            &HhOpts {
                m: 10,
                counters: 4,
                phi: 0.5,
            },
            Cursor::new(text),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("adds:              100"), "{out}");
        assert!(out.contains("removes skipped:   1"), "{out}");
        assert!(out.contains("object          1  freq 60"), "{out}");
        assert!(
            out.contains("[guaranteed]") || out.contains("[possible]"),
            "{out}"
        );
    }

    #[test]
    fn hh_with_no_hitters_prints_none() {
        let text = "a 0\na 1\na 2\na 3\n";
        let mut out = Vec::new();
        heavy_hitters(
            &HhOpts {
                m: 4,
                counters: 8,
                phi: 0.9,
            },
            Cursor::new(text),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.matches("(none)").count(), 2, "{out}");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sprofile-cli-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn profile_save_then_load_continues_identically() {
        let snap = temp_path("roundtrip.snap");
        let popts = ProfileOpts {
            m: 30,
            top: 3,
            histogram: false,
        };
        // Phase 1: profile half the stream, saving a snapshot.
        let mut out = Vec::new();
        profile_persist(
            &popts,
            &PersistOpts {
                load: None,
                save: Some(snap.to_str().unwrap().to_string()),
            },
            Cursor::new("a 1\na 1\na 2\nr 5\n"),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("snapshot:"), "{out}");
        // Phase 2: load it and apply the second half; the report must
        // equal profiling the whole stream at once.
        let mut loaded = Vec::new();
        profile_persist(
            &popts,
            &PersistOpts {
                load: Some(snap.to_str().unwrap().to_string()),
                save: None,
            },
            Cursor::new("a 1\na 7\n"),
            &mut loaded,
        )
        .unwrap();
        let loaded = String::from_utf8(loaded).unwrap();
        let mut whole = Vec::new();
        profile(
            &popts,
            Cursor::new("a 1\na 1\na 2\nr 5\na 1\na 7\n"),
            &mut whole,
        )
        .unwrap();
        let whole = String::from_utf8(whole).unwrap();
        // Event counts differ (2 vs 6); every profile statistic agrees.
        for (l, w) in loaded.lines().zip(whole.lines()).skip(1) {
            assert_eq!(l, w);
        }
        assert!(
            loaded.contains("mode:              object 1 at 3"),
            "{loaded}"
        );
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn profile_load_rejects_garbage_snapshots() {
        let path = temp_path("garbage.snap");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let err = profile_persist(
            &ProfileOpts {
                m: 10,
                top: 0,
                histogram: false,
            },
            &PersistOpts {
                load: Some(path.to_str().unwrap().to_string()),
                save: None,
            },
            Cursor::new(""),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loadgen_drives_a_live_server_and_shuts_it_down() {
        let server = Server::start(
            ServerConfig {
                m: 128,
                backend: BackendKind::Sharded { shards: 4 },
                workers: 4,
                flush_every: 64,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 2,
            events_per_thread: 1_000,
            batch: 100,
            m: 128,
            seed: 3,
            proto: WireProto::Text,
        };
        let mut out = Vec::new();
        loadgen(&cfg, true, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("tuples sent: 2000"), "{out}");
        assert!(out.contains("applied=2000"), "{out}");
        assert!(out.contains("latency:"), "{out}");
        assert!(out.contains("sent SHUTDOWN"), "{out}");
        assert_eq!(server.wait(), 2_000);
    }

    #[test]
    fn loadgen_in_binary_mode_applies_the_same_stream() {
        let server = Server::start(
            ServerConfig {
                m: 128,
                backend: BackendKind::Sharded { shards: 4 },
                workers: 2,
                flush_every: 64,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 2,
            events_per_thread: 1_000,
            batch: 100,
            m: 128,
            seed: 3,
            proto: WireProto::Bin,
        };
        let mut out = Vec::new();
        loadgen(&cfg, true, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("proto:       bin"), "{out}");
        assert!(out.contains("applied=2000"), "{out}");
        assert_eq!(server.wait(), 2_000);
    }

    /// Runs `serve` with `backend` (and `cluster`) on an ephemeral port,
    /// adds object 1 twice, shuts it down, and returns its output.
    fn serve_once(backend: BackendKind, cluster: Option<ClusterConfig>) -> String {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let config = ServerConfig {
            m: 64,
            backend,
            workers: 2,
            max_conns: 64,
            flush_every: 16,
            cluster,
            // `serve`'s callers sink log lines to stderr; keep the test
            // run quiet by turning emission off.
            obs: ObsConfig {
                level: None,
                ..ObsConfig::default()
            },
            ..ServerConfig::default()
        };
        let handle = {
            let mut out = buf.clone();
            std::thread::spawn(move || serve("127.0.0.1:0", config, &mut out))
        };
        // Scrape the resolved address off the listening line.
        let addr = loop {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
                break line["listening on ".len()..]
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        let mut c = Client::connect(addr.as_str()).unwrap();
        c.add(1).unwrap();
        c.add(1).unwrap();
        assert_eq!(c.freq(1).unwrap(), 2);
        Client::connect(addr.as_str())
            .unwrap()
            .shutdown_server()
            .unwrap();
        drop(c);
        handle.join().unwrap().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn serve_announces_and_stops_on_shutdown() {
        let text = serve_once(BackendKind::Sharded { shards: 1 }, None);
        assert!(text.contains("backend=sharded(1) m=64"), "{text}");
        assert!(text.contains("shutdown: 2 tuples applied"), "{text}");
    }

    #[test]
    fn serve_announces_the_effective_shard_count() {
        // A one-node cluster over 12 slices rounds 8 shards up to 12.
        let cluster = ClusterConfig {
            slices: 12,
            node: 0,
            nodes: vec!["127.0.0.1:0".into()],
        };
        let text = serve_once(BackendKind::Sharded { shards: 8 }, Some(cluster));
        assert!(text.contains("backend=sharded(12) m=64"), "{text}");
        assert!(text.contains("shutdown: 2 tuples applied"), "{text}");
    }

    fn temp_wal(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sprofile-cli-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_wal(dir: &Path) {
        let mut wal = sprofile_persist::Wal::open(
            sprofile_persist::WalOptions {
                dir: dir.to_path_buf(),
                ..Default::default()
            },
            1,
        )
        .unwrap();
        wal.append(&[Tuple::add(2), Tuple::add(2), Tuple::add(2)])
            .unwrap();
        wal.append(&[Tuple::remove(5)]).unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn recover_reports_the_replayed_state() {
        let dir = temp_wal("recover");
        seed_wal(&dir);
        let mut out = Vec::new();
        recover_report(&dir, 10, 3, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.contains("checkpoint:        none (full replay)"),
            "{out}"
        );
        assert!(
            out.contains("replayed:          2 record(s), 4 tuple(s)"),
            "{out}"
        );
        assert!(out.contains("next lsn:          3"), "{out}");
        assert!(out.contains("mode:              object 2 at 3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_dump_lists_records_and_honours_the_limit() {
        let dir = temp_wal("dump");
        seed_wal(&dir);
        let mut out = Vec::new();
        wal_dump(&dir, 1000, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("a2 a2 a2"), "{text}");
        assert!(text.contains("r5"), "{text}");
        assert!(text.contains("e1"), "epoch stamp column: {text}");
        assert!(text.contains("2 record(s)"), "{text}");
        let mut out = Vec::new();
        wal_dump(&dir, 1, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1 more record(s)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_then_recover_skips_replay() {
        let dir = temp_wal("compact");
        seed_wal(&dir);
        let mut out = Vec::new();
        checkpoint_compact(&dir, 10, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("checkpoint written at lsn 2"), "{text}");
        let mut out = Vec::new();
        recover_report(&dir, 10, 0, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("checkpoint:        lsn 2"), "{text}");
        assert!(text.contains("replayed:          0 record(s)"), "{text}");
        assert!(text.contains("mode:              object 2 at 3"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_after_loadgen_and_fails_on_a_different_seed() {
        let server = Server::start(
            ServerConfig {
                m: 256,
                backend: BackendKind::Sharded { shards: 4 },
                workers: 3,
                flush_every: 64,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            threads: 2,
            events_per_thread: 2_000,
            batch: 128,
            m: 256,
            seed: 41,
            proto: WireProto::Text,
        };
        sprofile_server::loadgen::run(&cfg).unwrap();
        let mut out = Vec::new();
        verify_server(&cfg, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("verify: OK"));
        // An oracle built from a different seed must disagree.
        let wrong = LoadgenConfig { seed: 42, ..cfg };
        let err = verify_server(&wrong, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CommandError::VerifyFailed(_)), "{err}");
        Client::connect(wrong.addr.as_str())
            .unwrap()
            .shutdown_server()
            .unwrap();
        server.wait();
    }

    #[test]
    fn stats_logtail_and_metrics_commands_round_trip() {
        let server = Server::start(
            ServerConfig {
                m: 32,
                workers: 2,
                flush_every: 1,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(addr.as_str()).unwrap();
        c.add(3).unwrap();
        assert_eq!(c.freq(3).unwrap(), 1);

        let mut out = Vec::new();
        stats_show(&addr, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("applied=1"), "{text}");
        assert!(text.contains("uptime_s="), "{text}");

        // Two instant samples: the first is the absolute baseline, the
        // second reports the +1 connection the watcher itself opened
        // (stats_show's client has quit by now, so conns_active nets
        // out; accepted only ever grows).
        let mut out = Vec::new();
        stats_watch(&addr, 1, Some(2), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with("[1] "), "{text}");
        assert!(lines[1].starts_with("[2]"), "{text}");

        // An idle server reads idle, although its uptime clock ticks
        // between two samples 1.1 s apart.
        let mut out = Vec::new();
        stats_watch(&addr, 1100, Some(2), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains(" uptime_s="), "{text}");
        assert_eq!(lines[1], "[2] (idle)", "{text}");

        let mut out = Vec::new();
        logtail_show(&addr, 64, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("target=server"), "{text}");

        let mut out = Vec::new();
        metrics_show(&addr, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("# TYPE sprofile_adds_total counter"),
            "{text}"
        );
        assert!(text.contains("sprofile_adds_total 1"), "{text}");

        c.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn stats_watch_reads_idle_on_a_wal_primary_and_its_replica() {
        let base = std::env::temp_dir().join(format!("sprofile-cli-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let primary = Server::start(
            ServerConfig {
                m: 32,
                workers: 2,
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
                wal: Some(DurabilityConfig::new(base.join("replica"))),
                replica_of: Some(primary.local_addr().to_string()),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        // Wait for the stream: both ends report it connected.
        for server in [&primary, &replica] {
            let mut c = Client::connect(server.local_addr()).unwrap();
            for _ in 0..500 {
                if Client::stats_field(&c.stats().unwrap(), "repl_connected") == Some(1) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let stats = c.stats().unwrap();
            assert_eq!(
                Client::stats_field(&stats, "repl_connected"),
                Some(1),
                "{stats}"
            );
            c.quit().unwrap();
        }
        // The primary keeps sending `EPOCH` heartbeats to its idle
        // replica; they are no data, so neither end reads busy.
        for (side, server) in [("primary", &primary), ("replica", &replica)] {
            let mut out = Vec::new();
            stats_watch(&server.local_addr().to_string(), 1100, Some(2), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2, "{side}: {text}");
            assert!(lines[0].contains(" repl_beats="), "{side}: {text}");
            assert_eq!(lines[1], "[2] (idle)", "{side}: {text}");
        }
        primary.shutdown();
        replica.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn promote_flips_a_replica_and_reports_the_lsn() {
        let base =
            std::env::temp_dir().join(format!("sprofile-cli-promote-{}", std::process::id()));
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
                wal: Some(DurabilityConfig::new(base.join("replica"))),
                replica_of: Some(primary.local_addr().to_string()),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut pc = Client::connect(primary.local_addr()).unwrap();
        pc.add(7).unwrap();
        pc.freq(7).unwrap();
        // Wait for the replica to apply, then promote it via the CLI
        // path and check it reports the applied position.
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        for _ in 0..500 {
            if rc.freq(7).unwrap() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(rc.freq(7).unwrap(), 1);
        let mut out = Vec::new();
        promote(&replica.local_addr().to_string(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("promoted at lsn 1 epoch 2"), "{text}");
        rc.add(7).unwrap();
        assert_eq!(rc.freq(7).unwrap(), 2);
        // On a non-replica the CLI surfaces the server's refusal.
        let err = promote(&primary.local_addr().to_string(), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("not a replica"), "{err}");
        pc.quit().unwrap();
        rc.quit().unwrap();
        primary.shutdown();
        replica.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn hh_rejects_out_of_range_ids() {
        let err = heavy_hitters(
            &HhOpts {
                m: 2,
                counters: 4,
                phi: 0.1,
            },
            Cursor::new("a 5\n"),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
