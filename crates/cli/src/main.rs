//! `sprofile` — command-line profiling of log-stream event files.
//!
//! ```text
//! sprofile generate --stream 1 --m 1000 --n 100000 --seed 7 > events.txt
//! sprofile profile events.txt --m 1000 --top 10 --histogram
//! sprofile ingest events.txt --m 1000 --chunk 8192 --top 10
//! sprofile watch events.txt --m 1000 --every 10000 --top 5
//! ```
//!
//! Event format: one event per line, `a <id>` / `r <id>` (see
//! [`textio`] for aliases). `profile` and `watch` read stdin when no file
//! is given.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;

mod commands;
mod textio;

use commands::{
    checkpoint_compact, generate, heavy_hitters, ingest, loadgen, logtail_show, map_show,
    metrics_show, migrate, profile_persist, promote, recover_report, serve, spans_show, stats_show,
    stats_watch, top_watch, verify_server, wal_dump, watch, GenerateOpts, HhOpts, PersistOpts,
    ProfileOpts, ServeOpts, StreamChoice,
};
use sprofile_server::{
    BackendKind, ClusterConfig, DurabilityConfig, Level, LoadgenConfig, LogFormat, SyncCommit,
    SyncPolicy, WireProto,
};

fn usage() -> &'static str {
    "usage:\n  \
     sprofile generate --stream <1|2|3|zipf:EXP> --m <M> --n <N> [--seed <S>]\n  \
     sprofile profile  [FILE] --m <M> [--top <K>] [--histogram] [--save <PATH>] [--load <PATH>]\n  \
     sprofile ingest   [FILE] --m <M> [--chunk <N>] [--top <K>] [--histogram]\n  \
     sprofile watch    [FILE] --m <M> [--every <N>] [--top <K>]\n  \
     sprofile hh       [FILE] --m <M> [--counters <K>] [--phi <F>]\n  \
     sprofile serve    --addr <HOST:PORT> --m <M> [--shards <P>] [--workers <N>]\n                    \
     [--max-conns <N>] [--proto <text|bin>]\n                    \
     [--flush <B>] [--snapshot-dir <DIR>]\n                    \
     [--wal <DIR>] [--sync <always|interval|never>] [--sync-interval-ms <MS>]\n                    \
     [--segment-bytes <B>] [--checkpoint-every <TUPLES>]\n                    \
     [--max-retain-bytes <B>] [--replica-of <HOST:PORT>]\n                    \
     [--sync-commit <off|quorum|all>] [--sync-commit-timeout-ms <MS>]\n                    \
     [--auto-failover <PEER,PEER>] [--heartbeat-ms <MS>] [--failover-grace <N>]\n                    \
     [--cluster-slices <S> --cluster-node <I> --cluster-nodes <ADDR,ADDR,...>]\n                    \
     [--log-level <off|error|warn|info|debug|trace>] [--log-format <logfmt|json>]\n                    \
     [--log-file <PATH>] [--slow-ms <MS>] [--metrics-addr <HOST:PORT>]\n  \
     sprofile promote  --addr <HOST:PORT>   (flip a replica writable)\n  \
     sprofile migrate  --addr <HOST:PORT> --slice <S> --target <NODE> [--trace <ID>]\n                    \
     (live rebalance: hand a hash slice to another cluster node)\n  \
     sprofile map      --addr <HOST:PORT>   (print a node's partition map)\n  \
     sprofile stats    --addr <HOST:PORT> [--watch] [--every-ms <MS>] [--count <N>]\n  \
     sprofile logtail  --addr <HOST:PORT> [--n <N>]   (dump the server's log ring)\n  \
     sprofile metrics  --addr <HOST:PORT>   (print the Prometheus exposition)\n  \
     sprofile spans    --addr <HOST:PORT> [--n <N>]   (slowest recent requests,\n                    \
     per-phase timings; n=0 dumps the whole flight recorder)\n  \
     sprofile top      --addr <HOST:PORT> [--every-ms <MS>] [--count <N>]\n                    \
     (live per-verb/per-phase view from METRICS interval deltas)\n  \
     sprofile loadgen  --addr <HOST:PORT> --m <M> [--threads <T>] [--n <N>]\n                    \
     [--batch <B>] [--seed <S>] [--proto <text|bin>] [--shutdown]\n  \
     sprofile verify   --addr <HOST:PORT> --m <M> [--threads <T>] [--n <N>]\n                    \
     [--batch <B>] [--seed <S>] [--proto <text|bin>]\n                    \
     (loadgen's client-side oracle check)\n  \
     sprofile recover  --wal <DIR> --m <M> [--top <K>]\n  \
     sprofile wal-dump --wal <DIR> [--limit <N>]\n  \
     sprofile checkpoint --wal <DIR> --m <M>\n\n\
     Event format: one per line, 'a <id>' to add, 'r <id>' to remove\n\
     ('add'/'+' and 'remove'/'rm'/'-' also work); '#' starts a comment.\n\
     FILE defaults to stdin. A flag the subcommand does not use is an error.\n\
     `serve` runs until a client sends SHUTDOWN\n\
     (e.g. `sprofile loadgen --shutdown` or `printf 'SHUTDOWN\\n' | nc`);\n\
     with --wal it recovers its state from the WAL directory first.\n\
     With --replica-of it follows that primary read-only (writes get\n\
     'ERR readonly') until `sprofile promote` flips it writable.\n\
     --proto bin makes clients upgrade to the length-prefixed binary\n\
     protocol (BIN) and pipeline BATCH frames; serve --proto bin starts\n\
     connections in binary mode.\n\
     --sync-commit makes a primary hold each OK until quorum/all attached\n\
     replicas acknowledged the write (degrades to async after the\n\
     timeout); --auto-failover lists the peer replicas a replica holds\n\
     elections with when the primary stops heartbeating.\n\
     The --cluster-* flags (all three together) make `serve` one node of\n\
     a hash-partitioned cluster: it owns the slices `x % S` its partition\n\
     map assigns it, refuses writes for foreign slices with 'ERR moved',\n\
     and answers global queries over its slices only (cluster clients\n\
     scatter-gather exact answers); cluster nodes default --flush to 1 so\n\
     rebalance hand-offs lose no acknowledged write.\n\
     Observability: `serve` logs structured lines to stderr (--log-file\n\
     redirects, --log-level off silences) and always keeps the newest\n\
     events in an in-memory ring (`sprofile logtail`); --slow-ms logs any\n\
     request served slower than the threshold; --metrics-addr exposes\n\
     Prometheus text on plain-HTTP GET /metrics (same payload as\n\
     `sprofile metrics`); `migrate --trace <ID>` tags the rebalance so\n\
     its events carry trace=<ID> in every involved node's logtail.\n\
     Profiling: every request is timed per phase (queue/parse/apply/\n\
     wal_lock_wait/wal_append/fsync/commit_wait/fanout/reply); `sprofile\n\
     spans` dumps the slowest recent requests with that breakdown, and\n\
     `sprofile top` renders a live per-verb/per-phase view."
}

/// Tiny flag parser: collects `--key value` pairs plus positional args,
/// and remembers every key a subcommand looks up, so
/// [`Args::reject_unused`] can refuse the flags it never read.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
    looked_up: RefCell<HashSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                // Boolean flags take no value; detect by peeking.
                let takes_value = !matches!(key, "histogram" | "help" | "shutdown" | "watch");
                if takes_value && i + 1 < raw.len() {
                    flags.push((key.to_string(), Some(raw[i + 1].clone())));
                    i += 2;
                } else {
                    flags.push((key.to_string(), None));
                    i += 1;
                }
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Args {
            positional,
            flags,
            looked_up: RefCell::default(),
        }
    }

    fn note(&self, key: &str) {
        self.looked_up.borrow_mut().insert(key.to_string());
    }

    /// Fails on the first flag `cmd` never looked up — a typo such as
    /// `--max-con` must not be silently ignored. Each subcommand calls
    /// it once its options are read, before it starts work.
    fn reject_unused(&self, cmd: &str) -> Result<(), String> {
        let looked_up = self.looked_up.borrow();
        match self.flags.iter().find(|(k, _)| !looked_up.contains(k)) {
            Some((key, _)) => Err(format!(
                "sprofile {cmd}: unexpected flag --{key} (see sprofile --help)"
            )),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.note(key);
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.note(key);
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// Like [`Args::get_parsed`], but rejects zero — for flags where a
    /// degenerate value would panic (`--m 0` on `watch`), divide by zero
    /// (`--every 0`), or loop forever (`--chunk 0` never fills a batch).
    fn get_parsed_positive<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        let v = self.get_parsed(key, default)?;
        if v == T::default() {
            return Err(format!("--{key} must be positive (0 is degenerate)"));
        }
        Ok(v)
    }
}

fn parse_proto(args: &Args) -> Result<WireProto, String> {
    let s = args.get("proto").unwrap_or("text");
    WireProto::parse(s).map_err(|e| format!("--proto: {e}"))
}

fn open_input(path: Option<&str>) -> io::Result<Box<dyn BufRead>> {
    match path {
        Some(p) => Ok(Box::new(BufReader::new(File::open(p)?))),
        None => Ok(Box::new(BufReader::new(io::stdin()))),
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let Some(cmd) = raw.first().cloned() else {
        return Err(usage().to_string());
    };
    let args = Args::parse(&raw[1..]);
    if args.has("help") {
        println!("{}", usage());
        return Ok(());
    }
    match cmd.as_str() {
        "generate" => {
            let stream = args.get("stream").unwrap_or("1");
            let stream = StreamChoice::parse(stream)
                .ok_or_else(|| format!("unknown stream '{stream}' (1, 2, 3, or zipf:EXP)"))?;
            let opts = GenerateOpts {
                stream,
                m: args.get_parsed_positive("m", 1_000_000u32)?,
                n: args.get_parsed("n", 1_000_000u64)?,
                seed: args.get_parsed("seed", 20190612u64)?,
            };
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            generate(&opts, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "profile" => {
            let persist = PersistOpts {
                load: args.get("load").map(str::to_string),
                save: args.get("save").map(str::to_string),
            };
            if persist.load.is_some() && args.get("m").is_some() {
                return Err(
                    "--m conflicts with --load (the universe size comes from the snapshot)".into(),
                );
            }
            let opts = ProfileOpts {
                m: args.get_parsed_positive("m", 1_000_000u32)?,
                top: args.get_parsed("top", 10u32)?,
                histogram: args.has("histogram"),
            };
            args.reject_unused(&cmd)?;
            let input = open_input(args.positional.first().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            profile_persist(&opts, &persist, input, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "ingest" => {
            let opts = ProfileOpts {
                m: args.get_parsed_positive("m", 1_000_000u32)?,
                top: args.get_parsed("top", 10u32)?,
                histogram: args.has("histogram"),
            };
            let chunk = args.get_parsed_positive("chunk", 8_192usize)?;
            args.reject_unused(&cmd)?;
            let input = open_input(args.positional.first().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            ingest(&opts, chunk, input, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "watch" => {
            let m = args.get_parsed_positive("m", 1_000_000u32)?;
            let every = args.get_parsed_positive("every", 100_000u64)?;
            let top = args.get_parsed("top", 5u32)?;
            args.reject_unused(&cmd)?;
            let input = open_input(args.positional.first().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            watch(m, every, top, input, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "serve" => {
            let shards = args.get_parsed_positive("shards", 8usize)?;
            let wal = match args.get("wal") {
                None => {
                    for key in [
                        "sync",
                        "sync-interval-ms",
                        "segment-bytes",
                        "checkpoint-every",
                        "max-retain-bytes",
                    ] {
                        if args.has(key) {
                            return Err(format!("--{key} requires --wal <DIR>"));
                        }
                    }
                    None
                }
                Some(dir) => {
                    let sync = args.get("sync").unwrap_or("interval");
                    let interval_ms = args.get_parsed_positive("sync-interval-ms", 50u64)?;
                    let sync = SyncPolicy::parse(sync, interval_ms).ok_or_else(|| {
                        format!("unknown --sync '{sync}' (always, interval, never)")
                    })?;
                    Some(DurabilityConfig {
                        sync,
                        segment_bytes: args.get_parsed_positive("segment-bytes", 8u64 << 20)?,
                        // 0 is meaningful here: it disables background
                        // checkpointing (the shutdown one still runs).
                        checkpoint_every: args.get_parsed("checkpoint-every", 1u64 << 16)?,
                        // Budget for segments retained only for lagging
                        // replicas (they re-bootstrap once it is spent).
                        max_retain_bytes: args.get_parsed_positive("max-retain-bytes", u64::MAX)?,
                        ..DurabilityConfig::new(dir)
                    })
                }
            };
            let replica_of = args.get("replica-of").map(str::to_string);
            if replica_of.is_none() {
                for key in ["auto-failover", "heartbeat-ms", "failover-grace"] {
                    if args.has(key) {
                        return Err(format!("--{key} requires --replica-of <HOST:PORT>"));
                    }
                }
            }
            let sync_commit = args.get("sync-commit").unwrap_or("off");
            let sync_commit = SyncCommit::parse(sync_commit).ok_or_else(|| {
                format!("unknown --sync-commit '{sync_commit}' (off, quorum, all)")
            })?;
            if sync_commit.is_on() && wal.is_none() {
                return Err("--sync-commit requires --wal <DIR> (acks gate on the log)".into());
            }
            let failover_peers = args.get("auto-failover").map(|peers| {
                peers
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            });
            let cluster_keys = ["cluster-slices", "cluster-node", "cluster-nodes"];
            let cluster = if cluster_keys.iter().any(|k| args.has(k)) {
                if !cluster_keys.iter().all(|k| args.has(k)) {
                    return Err(
                        "--cluster-slices, --cluster-node, and --cluster-nodes go together".into(),
                    );
                }
                let nodes: Vec<String> = args
                    .get("cluster-nodes")
                    .unwrap_or("")
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
                Some(ClusterConfig {
                    slices: args.get_parsed_positive("cluster-slices", 16u32)?,
                    node: args.get_parsed("cluster-node", 0u32)?,
                    nodes,
                })
            } else {
                None
            };
            let log_level = match args.get("log-level") {
                None => Some(Level::Info),
                Some(s) => Level::parse(s).ok_or_else(|| {
                    format!("unknown --log-level '{s}' (off, error, warn, info, debug, trace)")
                })?,
            };
            let log_format = {
                let s = args.get("log-format").unwrap_or("logfmt");
                LogFormat::parse(s)
                    .ok_or_else(|| format!("unknown --log-format '{s}' (logfmt, json)"))?
            };
            let slow_ms = if args.has("slow-ms") {
                Some(args.get_parsed_positive("slow-ms", 100u64)?)
            } else {
                None
            };
            // Cluster nodes default to per-write flushes: `MIGRATE`'s
            // no-acked-write-lost hand-off relies on them.
            let default_flush = if cluster.is_some() { 1usize } else { 256 };
            let opts = ServeOpts {
                addr: args.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
                m: args.get_parsed_positive("m", 1_048_576u32)?,
                backend: BackendKind::Sharded { shards },
                workers: args.get_parsed_positive("workers", 4usize)?,
                max_conns: args.get_parsed_positive("max-conns", 1024usize)?,
                proto: parse_proto(&args)?,
                flush: args.get_parsed_positive("flush", default_flush)?,
                snapshot_dir: args.get("snapshot-dir").unwrap_or(".").to_string(),
                wal,
                replica_of,
                sync_commit,
                sync_commit_timeout_ms: args
                    .get_parsed_positive("sync-commit-timeout-ms", 1_000u64)?,
                failover_peers,
                heartbeat_ms: args.get_parsed_positive("heartbeat-ms", 500u64)?,
                failover_grace: args.get_parsed_positive("failover-grace", 4u32)?,
                cluster,
                log_level,
                log_format,
                log_file: args.get("log-file").map(str::to_string),
                slow_ms,
                metrics_addr: args.get("metrics-addr").map(str::to_string),
            };
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = stdout.lock();
            serve(&opts, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "promote" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            promote(addr, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "migrate" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            let slice = args
                .get("slice")
                .ok_or("migrate needs --slice <S>")?
                .parse::<u32>()
                .map_err(|_| "invalid value for --slice".to_string())?;
            let target = args
                .get("target")
                .ok_or("migrate needs --target <NODE>")?
                .parse::<u32>()
                .map_err(|_| "invalid value for --target".to_string())?;
            let trace = args.get_parsed("trace", 0u64)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            migrate(addr, slice, target, trace, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "map" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            map_show(addr, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "stats" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            let watching = if args.has("watch") {
                let every_ms = args.get_parsed_positive("every-ms", 1_000u64)?;
                let count = if args.has("count") {
                    Some(args.get_parsed_positive("count", 10u64)?)
                } else {
                    None
                };
                Some((every_ms, count))
            } else {
                None
            };
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            match watching {
                Some((every_ms, count)) => stats_watch(addr, every_ms, count, &mut out),
                None => stats_show(addr, &mut out),
            }
            .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "logtail" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            let n = args.get_parsed_positive("n", 100usize)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            logtail_show(addr, n, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "metrics" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            metrics_show(addr, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "spans" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            // 0 (the default) dumps the whole flight recorder.
            let n = args.get_parsed("n", 0usize)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            spans_show(addr, n, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "top" => {
            let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
            let every_ms = args.get_parsed_positive("every-ms", 1_000u64)?;
            let count = if args.has("count") {
                Some(args.get_parsed_positive("count", 10u64)?)
            } else {
                None
            };
            args.reject_unused(&cmd)?;
            let clear = io::IsTerminal::is_terminal(&io::stdout());
            let stdout = io::stdout();
            let mut out = stdout.lock();
            top_watch(addr, every_ms, count, clear, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "loadgen" => {
            let cfg = LoadgenConfig {
                addr: args.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
                threads: args.get_parsed_positive("threads", 4usize)?,
                events_per_thread: args.get_parsed_positive("n", 25_000usize)?,
                batch: args.get_parsed_positive("batch", 512usize)?,
                m: args.get_parsed_positive("m", 1_048_576u32)?,
                seed: args.get_parsed("seed", 20190612u64)?,
                proto: parse_proto(&args)?,
            };
            let shutdown = args.has("shutdown");
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            loadgen(&cfg, shutdown, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "verify" => {
            let cfg = LoadgenConfig {
                addr: args.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
                threads: args.get_parsed_positive("threads", 4usize)?,
                events_per_thread: args.get_parsed_positive("n", 25_000usize)?,
                batch: args.get_parsed_positive("batch", 512usize)?,
                m: args.get_parsed_positive("m", 1_048_576u32)?,
                seed: args.get_parsed("seed", 20190612u64)?,
                proto: parse_proto(&args)?,
            };
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            let result = verify_server(&cfg, &mut out);
            out.flush().map_err(|e| e.to_string())?;
            result.map_err(|e| e.to_string())
        }
        "recover" => {
            let dir = args
                .get("wal")
                .ok_or("recover needs --wal <DIR>")?
                .to_string();
            let m = args.get_parsed_positive("m", 1_048_576u32)?;
            let top = args.get_parsed("top", 10u32)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            recover_report(std::path::Path::new(&dir), m, top, &mut out)
                .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "wal-dump" => {
            let dir = args
                .get("wal")
                .ok_or("wal-dump needs --wal <DIR>")?
                .to_string();
            let limit = args.get_parsed_positive("limit", 1_000usize)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            wal_dump(std::path::Path::new(&dir), limit, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "checkpoint" => {
            let dir = args
                .get("wal")
                .ok_or("checkpoint needs --wal <DIR>")?
                .to_string();
            let m = args.get_parsed_positive("m", 1_048_576u32)?;
            args.reject_unused(&cmd)?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            checkpoint_compact(std::path::Path::new(&dir), m, &mut out)
                .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        "hh" => {
            let opts = HhOpts {
                m: args.get_parsed_positive("m", 1_000_000u32)?,
                counters: args.get_parsed_positive("counters", 100usize)?,
                phi: args.get_parsed("phi", 0.01f64)?,
            };
            if !(0.0..1.0).contains(&opts.phi) || opts.phi <= 0.0 {
                return Err("--phi must lie in (0, 1)".into());
            }
            args.reject_unused(&cmd)?;
            let input = open_input(args.positional.first().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let stdout = io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            heavy_hitters(&opts, input, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["file.txt", "--m", "100", "--histogram", "--top", "5"]);
        assert_eq!(a.positional, vec!["file.txt"]);
        assert_eq!(a.get("m"), Some("100"));
        assert_eq!(a.get("top"), Some("5"));
        assert!(a.has("histogram"));
        assert!(!a.has("seed"));
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["--m", "1", "--m", "2"]);
        assert_eq!(a.get("m"), Some("2"));
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let a = args(&["--m", "64"]);
        assert_eq!(a.get_parsed("m", 0u32).unwrap(), 64);
        assert_eq!(a.get_parsed("n", 7u64).unwrap(), 7);
        let a = args(&["--m", "xyz"]);
        assert!(a.get_parsed("m", 0u32).is_err());
    }

    #[test]
    fn degenerate_zero_flags_are_rejected_with_a_clear_message() {
        // `--m 0` used to reach `watch`'s `expect("m > 0")` and panic;
        // `--every 0`/`--chunk 0` used to be per-command ad-hoc checks.
        for key in [
            "m",
            "chunk",
            "every",
            "workers",
            "max-conns",
            "flush",
            "threads",
            "batch",
        ] {
            let a = args(&[&format!("--{key}"), "0"]);
            let err = a.get_parsed_positive(key, 1u64).unwrap_err();
            assert!(err.contains(&format!("--{key}")), "{err}");
            assert!(err.contains("positive"), "{err}");
        }
    }

    #[test]
    fn positive_flags_accept_nonzero_and_defaults() {
        let a = args(&["--m", "8"]);
        assert_eq!(a.get_parsed_positive("m", 1u32).unwrap(), 8);
        // Absent flag falls back to the (positive) default.
        assert_eq!(a.get_parsed_positive("chunk", 512usize).unwrap(), 512);
        // Garbage still reports a parse error, not a zero error.
        let a = args(&["--m", "-3"]);
        let err = a.get_parsed_positive("m", 1u32).unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    // `--addr` carries no port in the two tests below, so a `serve` that
    // ignored the flag under test would fail at bind instead, with an
    // error naming neither the flag nor the subcommand.

    #[test]
    fn serve_rejects_a_misspelt_flag() {
        let raw = argv(&[
            "serve",
            "--addr",
            "127.0.0.1",
            "--m",
            "64",
            "--max-con",
            "2",
        ]);
        let err = run(&raw).unwrap_err();
        assert!(err.contains("--max-con") && err.contains("serve"), "{err}");
    }

    #[test]
    fn serve_rejects_the_removed_backend_flag() {
        let raw = argv(&["serve", "--addr", "127.0.0.1", "--backend", "pipeline"]);
        let err = run(&raw).unwrap_err();
        assert!(err.contains("--backend") && err.contains("serve"), "{err}");
    }

    #[test]
    fn shutdown_is_a_boolean_flag() {
        let a = args(&["--shutdown", "--addr", "127.0.0.1:7979"]);
        assert!(a.has("shutdown"));
        assert_eq!(a.get("addr"), Some("127.0.0.1:7979"));
    }
}
