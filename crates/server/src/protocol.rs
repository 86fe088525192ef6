//! The newline-delimited text protocol.
//!
//! One request per line; the command word is case-insensitive. Replies
//! are single lines too, except `TOPK` which returns a header line
//! followed by one line per entry — a client always knows how many lines
//! to read next, so the connection never desyncs.
//!
//! ```text
//! request              reply
//! -------              -----
//! ADD <id>             OK                  (buffered; applied on flush)
//! RM <id>              OK
//! BATCH <n>            OK <n>              (after n tuple lines: a <id> / r <id> / +<id> / -<id>)
//! MODE                 MODE <obj> <freq>   (or NONE on an empty universe)
//! LEAST                LEAST <obj> <freq>  (or NONE)
//! FREQ <id>            FREQ <id> <freq>
//! MEDIAN               MEDIAN <freq>       (or NONE)
//! TOPK <k>             TOPK <n>  then n lines "<obj> <freq>"
//! CAL <f>              CAL <count>         (count of objects with freq ≥ f)
//! STATS                STATS key=value ...
//! METRICS              METRICS <nbytes>    (nbytes of Prometheus text
//!                                          exposition follow the line)
//! LOGTAIL [n]          LOGTAIL <nbytes>    (nbytes of rendered log lines —
//!                                          the newest n ring-buffer events,
//!                                          or all retained when n is omitted)
//! SPANS [n]            SPANS <nbytes>      (nbytes of span lines: the n
//!                                          slowest recent requests with
//!                                          per-phase timings; all retained
//!                                          when n is omitted)
//! TRACE <id>           OK                  (tag subsequent requests on this
//!                                          connection with trace id; 0 clears)
//! SNAPSHOT <path>      OK <bytes>          (relative path, confined to the
//!                                          server's snapshot directory)
//! REPLICATE <lsn> [<epoch>]  frame stream  (replication handshake; see below)
//! PROMOTE              OK <lsn> <epoch>    (flip a replica writable at its
//!                                          applied LSN, at a freshly bumped
//!                                          epoch; ERR on non-replicas)
//! BIN                  OK BIN              (switch this connection to the
//!                                          binary protocol; see below)
//! QUIT                 BYE                 (connection closes)
//! SHUTDOWN             BYE                 (whole server drains and stops)
//! ```
//!
//! Cluster verbs (meaningful only on a node started with `--cluster`;
//! other servers answer `ERR not a cluster node`):
//!
//! ```text
//! request                        reply
//! -------                        -----
//! MAP                            MAP <ver> <slices> <nodes,> <owners,>
//! MAPSET <ver> <slices> <n,> <o,>  OK <ver>   (install a strictly newer map)
//! MIGRATE <slice> <target>       OK <ver>     (ship the slice, flip the map)
//! ADOPT <slice> <ver> <nbytes>   OK <applied> (migration sink; nbytes of the
//!                                             slice's frequencies follow)
//! ```
//!
//! # Binary mode
//!
//! Every connection starts in text. `BIN` upgrades it to the
//! length-prefixed binary protocol defined in [`crate::bin_proto`]:
//! `BATCH` payloads reuse replication's 5-byte tuple encoding, and the
//! read queries get compact fixed-layout request/response frames. The
//! reply to `BIN` itself is still the text line `OK BIN`; everything
//! after it is binary.
//!
//! Both protocols are thin codecs over one request core, and each codec
//! serves both ends of the wire. This module decodes text lines into
//! [`Request`]s (`TextDecoder`) and encodes [`Response`]s as text for
//! the server; for the client it encodes a [`Request`] as text
//! ([`encode_request`]) and reads the reply back into the [`Response`]
//! the server encoded ([`read_response`]). `bin_proto` does the same for
//! binary frames. Each connection runs every frame through decode →
//! [`Request`] → `execute` → [`Response`] → encode, so each verb's
//! semantics (write gates, universe and ownership checks, counters)
//! exist once and answer identically in both protocols. Malformed
//! binary input — an unknown opcode, or a `BATCH` count beyond the
//! cap — gets a typed binary `ERR` frame and the connection closes,
//! since framing can no longer be trusted; in-frame semantic errors
//! (bad op byte, object outside the universe) consume the frame,
//! answer `ERR`, and keep the connection usable, exactly like text
//! `BATCH` bodies.
//!
//! Any malformed line gets an `ERR <reason>` reply and the connection
//! stays usable. A `BATCH` whose tuple lines contain an error is
//! consumed in full, answered with `ERR`, and **none** of its tuples are
//! applied. Blank lines and `#` comments are ignored (no reply).
//!
//! On a **replica** (`serve --replica-of`), the write requests `ADD`,
//! `RM`, and `BATCH` are answered with `ERR readonly` (a rejected
//! `BATCH` still consumes its body so the connection stays in sync);
//! every read query works normally. `PROMOTE` stops the replica's
//! applier and flips it writable at its applied LSN.
//!
//! `REPLICATE <lsn> [<epoch>]` turns the connection into a replication
//! stream: the server (which must run with `--wal`, and must not itself
//! be an unpromoted replica) ships WAL records from `lsn` onwards as
//! framed `CKPT`/`REC` messages while reading `ACK <lsn>` lines back —
//! see `sprofile_replicate::frame` for the exact format. The optional
//! `epoch` is the highest generation the replica has already followed
//! (omitted/0: don't care): a primary whose own epoch is older refuses
//! with `ERR fenced: …` instead of streaming — it is a stale head that
//! restarted after a failover. In the other direction, every stream
//! opens with an `EPOCH <e>` frame and repeats it as an idle heartbeat
//! (~200 ms); a replica that sees a generation older than one it has
//! followed aborts the stream. Streams run on dedicated threads, so
//! they never occupy one of the bounded accept-pool slots. The
//! connection stays in streaming mode until either side closes it.
//!
//! `STATS` and `METRICS` report the fields of one table,
//! `prom::FIELDS`: each row holds a field's `STATS` key, its Prometheus
//! family, its help text and its reader, and README's field reference
//! lists the rows. `STATS` is the rows with a key, as `key=value` pairs
//! in table order. It always reports `wal=0|1` and the replication
//! fields (`repl_role` … `sync_commit`, where `sync_commit` reads
//! `degraded` while synchronous commit has timed out waiting for
//! replica acks and fallen back to asynchronous). A `--wal` server adds
//! the `wal_*` fields, including `wal_failed` (0/1: the log has
//! fail-stopped); a `--sync-commit` primary adds the `commit_wait*`
//! summary; a cluster node adds `cluster_slices` … `migrations`. After
//! a fail-stop the server keeps serving reads but answers new writes
//! with `ERR wal failed…` — acknowledging writes that can never be
//! logged would silently diverge from the durable log and from every
//! replica tailing it.
//!
//! # Cluster mode
//!
//! A node started with `--cluster` owns a subset of the hash *slices*
//! (`slice = id % slices`) under a versioned partition map shared by
//! the whole cluster. Writes (`ADD`/`RM`, and any `BATCH` containing a
//! tuple) for objects whose slice this node does not own are refused
//! **whole-frame** with the typed redirect `ERR moved <ver>`, where
//! `<ver>` is the node's current map version — a cluster router that
//! sees it refetches the map with `MAP`, repartitions, and retries.
//! `FREQ` for a non-owned object is `ERR moved <ver>` too. The global
//! queries `MODE` / `LEAST` / `MEDIAN` / `TOPK` / `CAL` answer over the
//! *owned* objects only (`TOPK` over-fetches the tie class straddling
//! the cut, at most `2k − 1` entries), with the same deterministic tie
//! order as a single server — so a router merging per-node answers
//! reproduces the single-profile answer exactly.
//!
//! `MIGRATE <slice> <target>` (sent to the slice's current owner) ships
//! the slice's frequencies to node index `target` via `ADOPT`, flips
//! the local map to `version + 1` (the flip waits for writes admitted
//! under the old map; new writes for the slice get `ERR moved`), ships
//! again only if the slice changed before the flip, and finally pushes
//! the new map to the target with `MAPSET`. `ADOPT` carries `<nbytes>`
//! of body immediately after the request line: for slice `s` of `S`,
//! the frequency of each object `s, s + S, s + 2S, … < m` as 8
//! little-endian bytes. The sink refuses a body of any other length,
//! applies each object's difference from its own state through its
//! normal write path (durable, replicated), and answers `OK <applied>`
//! (the tuple count; adopting the same body again applies 0).
//!
//! # Observability verbs
//!
//! `METRICS` renders the rows of the same table that have a family, in
//! the Prometheus text exposition format (version 0.0.4): the `STATS`
//! fields other than the identity text and the histogram summaries,
//! plus the per-verb latency histograms
//! (`sprofile_request_duration_us{verb=…}`), the phase family
//! `sprofile_phase_duration_us{phase=…}` (one series per span phase,
//! `queue` through `reply`; every request records every phase, so the
//! counts are equal and the sums partition the per-verb sums), the
//! per-flush histogram `sprofile_flush_duration_us` (one sample per
//! write-buffer flush), the WAL, replication and commit-wait
//! histograms, and per-second meters. A family's type is derived: a
//! histogram is a histogram, and any other family is a counter when its
//! name ends in `_total` and a gauge when it does not. The reply is
//! length-prefixed (`METRICS <nbytes>` followed by exactly `nbytes` of
//! payload) so the connection never desyncs on the multi-line body. The
//! same payload is served as plain HTTP on `GET /metrics` when the
//! server runs with `--metrics-addr`.
//!
//! `LOGTAIL [n]` dumps the newest `n` events retained in the in-memory
//! structured-log ring buffer (all retained events when `n` is omitted
//! or 0), rendered in the server's configured log format, with the same
//! length-prefixed framing as `METRICS`.
//!
//! `TRACE <id>` sets a sticky trace id on this connection: subsequent
//! requests are stamped with it in the structured log (target `trace`)
//! and the id propagates across hops — into WAL replication frames
//! (`TRC`, so replicas log it too) and into `MIGRATE`'s connection to
//! the adopting node. `TRACE 0` clears it. The binary protocol carries
//! the same thing as a `REQ_TRACE` frame (see [`crate::bin_proto`]).
//!
//! `SPANS [n]` dumps the `n` slowest recent requests retained by the
//! span flight recorder (all of them when `n` is omitted or 0), one
//! logfmt line per request: `total_us=… verb=… [trace=…] conn=…`
//! followed by the nonzero per-phase timings (`queue_us`, `parse_us`,
//! `apply_us`, `wal_lock_wait_us`, `wal_append_us`, `fsync_us`,
//! `commit_wait_us`, `fanout_us`, `reply_us`). Slowest first, with the
//! same length-prefixed framing as `METRICS`.

use std::borrow::Cow;
use std::io::{self, BufRead, Write as _};
use std::str::FromStr;

use sprofile::Tuple;
use sprofile_persist::PartitionMap;

/// Upper bound on a `BATCH` header, so a hostile `BATCH 99999999999`
/// cannot make the server buffer unbounded memory.
pub const MAX_BATCH: usize = 1 << 20;

/// Upper bound on an `ADOPT` body, so a hostile header cannot make the
/// sink buffer unbounded memory. Generous: a slice's body is 8·m/S
/// bytes, 8 MiB at m = 2^20 even with a single slice.
pub const MAX_ADOPT_BYTES: usize = 1 << 28;

/// Which wire encoding a connection (or a whole server/loadgen) speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WireProto {
    /// Newline-delimited text (the default; always accepted).
    #[default]
    Text,
    /// Length-prefixed binary frames (see [`crate::bin_proto`]).
    Bin,
}

impl WireProto {
    /// Parses `text` / `bin` (case-insensitive).
    pub fn parse(s: &str) -> Result<WireProto, String> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(WireProto::Text),
            "bin" | "binary" => Ok(WireProto::Bin),
            other => Err(format!("unknown protocol '{other}' (use text or bin)")),
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            WireProto::Text => "text",
            WireProto::Bin => "bin",
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `ADD <id>` — buffer one add.
    Add(u32),
    /// `RM <id>` — buffer one remove.
    Remove(u32),
    /// `BATCH <n>` — `n` tuple lines follow. The text decoder reads the
    /// body and hands the server a [`Request::BatchFrame`].
    Batch(usize),
    /// A complete `BATCH` frame (either protocol): `count` tuples were
    /// sent, `tuples` holds them up to the first undecodable one, and
    /// `bad` is that one's error. Never returned by [`parse_request`].
    BatchFrame {
        /// Tuples the frame announced.
        count: usize,
        /// The decoded tuples, up to the first bad one.
        tuples: Vec<Tuple>,
        /// The first undecodable tuple's error, `tuple <i>: …`.
        bad: Option<String>,
    },
    /// `MODE` — most frequent object.
    Mode,
    /// `LEAST` — least frequent object.
    Least,
    /// `FREQ <id>` — one object's frequency.
    Freq(u32),
    /// `MEDIAN` — lower median frequency.
    Median,
    /// `TOPK <k>` — the k most frequent objects.
    TopK(u32),
    /// `CAL <f>` — count of objects at frequency ≥ f.
    Cal(i64),
    /// `STATS` — server metrics.
    Stats,
    /// `METRICS` — Prometheus text exposition, length-prefixed.
    Metrics,
    /// `LOGTAIL [n]` — newest `n` ring-buffer log events (0: all).
    Logtail(usize),
    /// `SPANS [n]` — the `n` slowest recent request spans (0: all).
    Spans(usize),
    /// `TRACE <id>` — set this connection's sticky trace id (0 clears).
    Trace(u64),
    /// `SNAPSHOT <path>` — persist a snapshot server-side. The server
    /// only accepts relative paths without `..`, resolved inside its
    /// configured snapshot directory.
    Snapshot(String),
    /// Binary `SNAPSHOT` — return the checkpoint bytes inline.
    SnapshotFetch,
    /// `REPLICATE <lsn> [<epoch>]` — turn this connection into a
    /// replication stream shipping WAL records from `lsn` onwards. The
    /// optional epoch is the highest generation the replica has
    /// followed (0: don't care); a primary older than it refuses the
    /// stream with `ERR fenced: …`.
    Replicate {
        /// First LSN the replica wants shipped.
        start_lsn: u64,
        /// Highest epoch the replica has followed (0: don't care).
        epoch: u64,
    },
    /// `PROMOTE` — flip a replica writable at its applied LSN.
    Promote,
    /// `MAP` — the node's current partition map, wire-encoded.
    Map,
    /// `MAPSET <ver> <slices> <nodes,> <owners,>` — install a strictly
    /// newer partition map (older/equal versions are a no-op).
    MapSet(PartitionMap),
    /// `MIGRATE <slice> <target>` — ship `slice` to node index `target`
    /// and flip the map.
    Migrate {
        /// The hash slice to move (this node must own it).
        slice: u32,
        /// The receiving node's index in the map.
        target: u32,
    },
    /// `ADOPT <slice> <version> <nbytes>` — migration sink: `nbytes` of
    /// body (the slice's frequencies, 8 bytes each) follow this line.
    /// The text decoder reads the body and hands the server a
    /// [`Request::AdoptFrame`].
    Adopt {
        /// The hash slice being shipped.
        slice: u32,
        /// The sender's map version at ship time (diagnostic).
        version: u64,
        /// Body bytes that follow the request line.
        nbytes: usize,
    },
    /// A complete `ADOPT` frame: the shipped body for `slice`.
    /// Never returned by [`parse_request`].
    AdoptFrame {
        /// The hash slice being shipped.
        slice: u32,
        /// The sender's map version at ship time (diagnostic).
        version: u64,
        /// The slice's frequencies, 8 little-endian bytes per object.
        body: Vec<u8>,
    },
    /// `BIN` — switch this connection to the binary protocol.
    BinUpgrade,
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — drain and stop the whole server.
    Shutdown,
}

impl Request {
    /// A complete `BATCH` frame of `tuples`, as a client sends it.
    pub fn batch(tuples: Vec<Tuple>) -> Request {
        Request::BatchFrame {
            count: tuples.len(),
            tuples,
            bad: None,
        }
    }

    /// The request's command word, as the text protocol spells it.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Add(_) => "ADD",
            Request::Remove(_) => "RM",
            Request::Batch(_) | Request::BatchFrame { .. } => "BATCH",
            Request::Mode => "MODE",
            Request::Least => "LEAST",
            Request::Freq(_) => "FREQ",
            Request::Median => "MEDIAN",
            Request::TopK(_) => "TOPK",
            Request::Cal(_) => "CAL",
            Request::Stats => "STATS",
            Request::Metrics => "METRICS",
            Request::Logtail(_) => "LOGTAIL",
            Request::Spans(_) => "SPANS",
            Request::Trace(_) => "TRACE",
            Request::Snapshot(_) | Request::SnapshotFetch => "SNAPSHOT",
            Request::Replicate { .. } => "REPLICATE",
            Request::Promote => "PROMOTE",
            Request::Map => "MAP",
            Request::MapSet(_) => "MAPSET",
            Request::Migrate { .. } => "MIGRATE",
            Request::Adopt { .. } | Request::AdoptFrame { .. } => "ADOPT",
            Request::BinUpgrade => "BIN",
            Request::Quit => "QUIT",
            Request::Shutdown => "SHUTDOWN",
        }
    }

    /// Whether this is a `BATCH` frame either codec can carry: every
    /// tuple decoded, as many as announced, and no more than
    /// [`MAX_BATCH`].
    pub(crate) fn is_sendable_batch(&self) -> bool {
        matches!(self, Request::BatchFrame { count, tuples, bad: None }
            if *count == tuples.len() && *count <= MAX_BATCH)
    }
}

fn parse_arg<T: std::str::FromStr>(cmd: &str, arg: Option<&str>) -> Result<T, String> {
    let arg = arg.ok_or_else(|| format!("{cmd} needs an argument"))?;
    arg.parse()
        .map_err(|_| format!("invalid argument '{arg}' for {cmd}"))
}

/// Parses one request line. `Ok(None)` for blank/comment lines (which
/// get no reply); `Err` carries the `ERR` message to send back.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (word, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((w, r)) => (w, Some(r.trim())),
        None => (trimmed, None),
    };
    let upper = word.to_ascii_uppercase();
    let req = match upper.as_str() {
        "ADD" => Request::Add(parse_arg(&upper, rest)?),
        "RM" => Request::Remove(parse_arg(&upper, rest)?),
        "BATCH" => {
            let n: usize = parse_arg(&upper, rest)?;
            if n > MAX_BATCH {
                return Err(format!("BATCH size {n} exceeds maximum {MAX_BATCH}"));
            }
            Request::Batch(n)
        }
        "MODE" => Request::Mode,
        "LEAST" => Request::Least,
        "FREQ" => Request::Freq(parse_arg(&upper, rest)?),
        "MEDIAN" => Request::Median,
        "TOPK" => Request::TopK(parse_arg(&upper, rest)?),
        "CAL" => Request::Cal(parse_arg(&upper, rest)?),
        "STATS" => Request::Stats,
        "METRICS" => Request::Metrics,
        "LOGTAIL" => match rest.filter(|r| !r.is_empty()) {
            Some(_) => Request::Logtail(parse_arg(&upper, rest)?),
            None => Request::Logtail(0),
        },
        "SPANS" => match rest.filter(|r| !r.is_empty()) {
            Some(_) => Request::Spans(parse_arg(&upper, rest)?),
            None => Request::Spans(0),
        },
        "TRACE" => Request::Trace(parse_arg(&upper, rest)?),
        "SNAPSHOT" => {
            let path = rest.filter(|r| !r.is_empty());
            Request::Snapshot(path.ok_or("SNAPSHOT needs a path")?.to_string())
        }
        "REPLICATE" => {
            let rest = rest
                .filter(|r| !r.is_empty())
                .ok_or("REPLICATE needs an argument")?;
            let mut parts = rest.split_whitespace();
            let start_lsn = parse_arg(&upper, parts.next())?;
            let epoch = match parts.next() {
                Some(e) => e
                    .parse()
                    .map_err(|_| format!("invalid epoch '{e}' for REPLICATE"))?,
                None => 0,
            };
            if parts.next().is_some() {
                return Err("REPLICATE takes at most two arguments".into());
            }
            Request::Replicate { start_lsn, epoch }
        }
        "PROMOTE" => Request::Promote,
        "MAP" => Request::Map,
        "MAPSET" => {
            let rest = rest
                .filter(|r| !r.is_empty())
                .ok_or("MAPSET needs a wire-encoded map")?;
            Request::MapSet(PartitionMap::from_wire(rest)?)
        }
        "MIGRATE" => {
            let rest = rest
                .filter(|r| !r.is_empty())
                .ok_or("MIGRATE needs <slice> <target>")?;
            let mut parts = rest.split_whitespace();
            let slice = parse_arg(&upper, parts.next())?;
            let target = parse_arg(&upper, parts.next())?;
            if parts.next().is_some() {
                return Err("MIGRATE takes exactly two arguments".into());
            }
            Request::Migrate { slice, target }
        }
        "ADOPT" => {
            let rest = rest
                .filter(|r| !r.is_empty())
                .ok_or("ADOPT needs <slice> <version> <nbytes>")?;
            let mut parts = rest.split_whitespace();
            let slice = parse_arg(&upper, parts.next())?;
            let version = parse_arg(&upper, parts.next())?;
            let nbytes: usize = parse_arg(&upper, parts.next())?;
            if parts.next().is_some() {
                return Err("ADOPT takes exactly three arguments".into());
            }
            if nbytes > MAX_ADOPT_BYTES {
                return Err(format!(
                    "ADOPT body {nbytes} exceeds maximum {MAX_ADOPT_BYTES}"
                ));
            }
            Request::Adopt {
                slice,
                version,
                nbytes,
            }
        }
        "BIN" => Request::BinUpgrade,
        "QUIT" => Request::Quit,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown command '{other}'")),
    };
    // Argument-less commands must really be argument-less.
    if matches!(
        req,
        Request::Mode
            | Request::Least
            | Request::Median
            | Request::Stats
            | Request::Metrics
            | Request::Map
            | Request::Promote
            | Request::BinUpgrade
            | Request::Quit
            | Request::Shutdown
    ) && rest.is_some_and(|r| !r.is_empty())
    {
        return Err(format!("{upper} takes no argument"));
    }
    Ok(Some(req))
}

/// Parses one tuple line of a `BATCH` body: `a <id>` / `r <id>` (aliases
/// `add`/`+` and `remove`/`rm`/`-`, plus compact `+<id>` / `-<id>`).
pub fn parse_tuple_line(line: &str) -> Result<Tuple, String> {
    let trimmed = line.trim();
    let (action, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((a, r)) => (a, r.trim()),
        None => {
            if let Some(id) = trimmed.strip_prefix('+') {
                ("a", id)
            } else if let Some(id) = trimmed.strip_prefix('-') {
                ("r", id)
            } else {
                return Err(format!("expected '<a|r> <id>', got '{trimmed}'"));
            }
        }
    };
    let is_add = match action {
        "a" | "add" | "+" => true,
        "r" | "remove" | "rm" | "-" => false,
        other => {
            return Err(format!(
                "unknown action '{other}' (use a/add/+ or r/remove/rm/-)"
            ))
        }
    };
    let object: u32 = rest
        .parse()
        .map_err(|_| format!("invalid object id '{rest}'"))?;
    Ok(Tuple { object, is_add })
}

/// One reply of the request core: the server encodes it in the
/// connection's protocol, and a client's [`read_response`] (or
/// [`crate::bin_proto::read_response`]) reads the same value back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `OK` (`ADD`/`RM`/`TRACE`); binary `OK 0`.
    Ok,
    /// `OK <n>`: tuples accepted (`BATCH`), bytes written (`SNAPSHOT`),
    /// map version (`MAPSET`/`MIGRATE`), tuples applied (`ADOPT`).
    Count(u64),
    /// `BYE` (`QUIT`/`SHUTDOWN`); binary `OK 0`.
    Bye,
    /// `OK BIN`, a text line in both protocols.
    Upgraded,
    /// `ERR <message>`.
    Err(String),
    /// `MODE <obj> <freq>` or `NONE`; binary `PAIR`.
    Mode(Option<(u32, i64)>),
    /// `LEAST <obj> <freq>` or `NONE`; binary `PAIR`.
    Least(Option<(u32, i64)>),
    /// `FREQ <obj> <freq>`.
    Freq(u32, i64),
    /// `MEDIAN <freq>` or `NONE`.
    Median(Option<i64>),
    /// `TOPK <n>` and one `<obj> <freq>` line per entry.
    TopK(Vec<(u32, i64)>),
    /// `CAL <count>`.
    Cal(u32),
    /// `STATS <payload>`.
    Stats(String),
    /// `METRICS <nbytes>` and the exposition.
    Metrics(String),
    /// `LOGTAIL <nbytes>` and the log lines.
    Logtail(String),
    /// `SPANS <nbytes>` and the span lines.
    Spans(String),
    /// Binary `SNAPSHOT`: checkpoint bytes inline.
    Snapshot(Vec<u8>),
    /// `OK <lsn> <epoch>` after `PROMOTE`.
    Promoted {
        /// The applied LSN the replica was promoted at.
        lsn: u64,
        /// The epoch it now serves.
        epoch: u64,
    },
    /// `MAP <wire-encoded map>`.
    Map(String),
    /// Validated `REPLICATE`: no reply; the connection becomes a
    /// replication stream.
    Stream {
        /// First LSN the replica wants shipped.
        start_lsn: u64,
        /// Highest epoch the replica has followed.
        epoch: u64,
    },
}

/// What a decoder found at the front of a connection's unread bytes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Decoded {
    /// The next frame is not complete yet.
    Incomplete,
    /// A blank or comment line: consumed, and answered with nothing.
    Blank,
    /// One complete request.
    Request(Request),
    /// A malformed frame, answered with `ERR <msg>`; `fatal` when the
    /// framing itself is lost and the connection must close.
    Malformed {
        /// The `ERR` message.
        msg: String,
        /// Close the connection after the reply.
        fatal: bool,
    },
}

/// Text decoder state for one connection: the `BATCH` or `ADOPT` body
/// whose header line was read but whose body is still arriving. The
/// body is consumed incrementally and reaches the server as one
/// complete request, however many reads it took.
#[derive(Default)]
pub(crate) struct TextDecoder {
    body: Option<Body>,
}

enum Body {
    /// `BATCH`: `want` tuple lines, `seen` read so far, decoded up to
    /// the first bad line.
    Batch {
        want: usize,
        seen: usize,
        tuples: Vec<Tuple>,
        bad: Option<String>,
    },
    /// `ADOPT`: `want` raw bytes.
    Adopt {
        slice: u32,
        version: u64,
        want: usize,
        bytes: Vec<u8>,
    },
}

/// The next line of `buf` and the bytes it spans, `\n` included; at
/// EOF a partial trailing line is handed up as-is.
fn next_line(buf: &[u8], eof: bool) -> Option<(Cow<'_, str>, usize)> {
    let (line, used) = match buf.iter().position(|&b| b == b'\n') {
        Some(i) => (&buf[..i], i + 1),
        None if eof && !buf.is_empty() => (buf, buf.len()),
        None => return None,
    };
    Some((String::from_utf8_lossy(line), used))
}

impl TextDecoder {
    /// Decodes the request at the front of `buf`: `(bytes consumed,
    /// outcome)`. A `BATCH` or `ADOPT` body that is still arriving is
    /// consumed as far as it goes and reported `Incomplete` until its
    /// last byte is in.
    pub(crate) fn decode(&mut self, buf: &[u8], eof: bool) -> (usize, Decoded) {
        let mut used = 0;
        loop {
            match self.body.take() {
                None => {
                    let Some((line, n)) = next_line(&buf[used..], eof) else {
                        return (used, Decoded::Incomplete);
                    };
                    used += n;
                    self.body = match parse_request(&line) {
                        Ok(None) => return (used, Decoded::Blank),
                        Ok(Some(Request::Batch(want))) => Some(Body::Batch {
                            want,
                            seen: 0,
                            tuples: Vec::with_capacity(want),
                            bad: None,
                        }),
                        Ok(Some(Request::Adopt {
                            slice,
                            version,
                            nbytes,
                        })) => Some(Body::Adopt {
                            slice,
                            version,
                            want: nbytes,
                            bytes: Vec::new(),
                        }),
                        Ok(Some(req)) => return (used, Decoded::Request(req)),
                        Err(msg) => return (used, Decoded::Malformed { msg, fatal: false }),
                    };
                }
                Some(Body::Batch {
                    want,
                    mut seen,
                    mut tuples,
                    mut bad,
                }) => {
                    while seen < want {
                        let Some((line, n)) = next_line(&buf[used..], eof) else {
                            self.body = Some(Body::Batch {
                                want,
                                seen,
                                tuples,
                                bad,
                            });
                            return (used, Decoded::Incomplete);
                        };
                        used += n;
                        seen += 1;
                        if bad.is_none() {
                            match parse_tuple_line(&line) {
                                Ok(t) => tuples.push(t),
                                Err(msg) => bad = Some(format!("tuple {seen}: {msg}")),
                            }
                        }
                    }
                    let req = Request::BatchFrame {
                        count: want,
                        tuples,
                        bad,
                    };
                    return (used, Decoded::Request(req));
                }
                Some(Body::Adopt {
                    slice,
                    version,
                    want,
                    mut bytes,
                }) => {
                    let take = (want - bytes.len()).min(buf.len() - used);
                    bytes.extend_from_slice(&buf[used..used + take]);
                    used += take;
                    if bytes.len() < want {
                        self.body = Some(Body::Adopt {
                            slice,
                            version,
                            want,
                            bytes,
                        });
                        return (used, Decoded::Incomplete);
                    }
                    let req = Request::AdoptFrame {
                        slice,
                        version,
                        body: bytes,
                    };
                    return (used, Decoded::Request(req));
                }
            }
        }
    }
}

/// Encodes one reply as text.
pub(crate) fn encode(out: &mut Vec<u8>, reply: &Response) {
    // Writing into a `Vec` cannot fail.
    let _ = match reply {
        Response::Ok => writeln!(out, "OK"),
        Response::Count(n) => writeln!(out, "OK {n}"),
        Response::Bye => writeln!(out, "BYE"),
        Response::Upgraded => writeln!(out, "OK BIN"),
        Response::Err(msg) => writeln!(out, "ERR {msg}"),
        Response::Mode(Some((obj, f))) => writeln!(out, "MODE {obj} {f}"),
        Response::Least(Some((obj, f))) => writeln!(out, "LEAST {obj} {f}"),
        Response::Median(Some(f)) => writeln!(out, "MEDIAN {f}"),
        Response::Mode(None) | Response::Least(None) | Response::Median(None) => {
            writeln!(out, "NONE")
        }
        Response::Freq(obj, f) => writeln!(out, "FREQ {obj} {f}"),
        Response::TopK(entries) => writeln!(out, "TOPK {}", entries.len()).and_then(|()| {
            entries
                .iter()
                .try_for_each(|(obj, f)| writeln!(out, "{obj} {f}"))
        }),
        Response::Cal(count) => writeln!(out, "CAL {count}"),
        Response::Stats(payload) => writeln!(out, "STATS {payload}"),
        Response::Metrics(payload) => sized(out, "METRICS", payload),
        Response::Logtail(payload) => sized(out, "LOGTAIL", payload),
        Response::Spans(payload) => sized(out, "SPANS", payload),
        Response::Promoted { lsn, epoch } => writeln!(out, "OK {lsn} {epoch}"),
        Response::Map(wire) => writeln!(out, "MAP {wire}"),
        // The text decoder never produces an inline-snapshot request.
        Response::Snapshot(_) => writeln!(out, "ERR reply has no text encoding"),
        Response::Stream { .. } => Ok(()),
    };
}

/// A `<NAME> <nbytes>` header line followed by exactly `nbytes` of
/// payload, so multi-line text rides the line protocol without
/// desyncing it.
fn sized(out: &mut Vec<u8>, name: &str, payload: &str) -> io::Result<()> {
    writeln!(out, "{name} {}", payload.len())?;
    out.extend_from_slice(payload.as_bytes());
    Ok(())
}

/// Encodes one request as text, the inverse of `TextDecoder`: the
/// bytes decode back to `req`. `Err` names a request text cannot carry
/// and writes nothing: the inline snapshot fetch, a bodiless
/// `BATCH`/`ADOPT` header, and what the decoder would refuse: a `BATCH`
/// frame with an undecoded tuple or more than [`MAX_BATCH`] tuples, an
/// `ADOPT` body over [`MAX_ADOPT_BYTES`], an invalid partition map, or
/// a snapshot path that is not one trimmed line.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) -> Result<(), String> {
    let name = req.name();
    // Writing into a `Vec` cannot fail.
    let _ = match req {
        Request::Add(x) | Request::Remove(x) | Request::Freq(x) | Request::TopK(x) => {
            writeln!(out, "{name} {x}")
        }
        Request::Cal(f) => writeln!(out, "{name} {f}"),
        Request::Trace(id) => writeln!(out, "{name} {id}"),
        Request::Logtail(n) | Request::Spans(n) => writeln!(out, "{name} {n}"),
        Request::Snapshot(path)
            if !path.is_empty() && !path.contains('\n') && path.trim() == path =>
        {
            writeln!(out, "{name} {path}")
        }
        Request::Replicate { start_lsn, epoch } => writeln!(out, "{name} {start_lsn} {epoch}"),
        Request::MapSet(map) if map.validate().is_ok() => {
            writeln!(out, "{name} {}", map.to_wire())
        }
        Request::Migrate { slice, target } => writeln!(out, "{name} {slice} {target}"),
        Request::BatchFrame { count, tuples, .. } if req.is_sendable_batch() => {
            let header = writeln!(out, "{name} {count}");
            // Pushed piece by piece: `writeln!` per tuple line costs
            // twice as much, and loadgen's text BATCH frames are all
            // tuple lines.
            for t in tuples {
                out.extend_from_slice(if t.is_add { b"a " } else { b"r " });
                out.extend_from_slice(t.object.to_string().as_bytes());
                out.push(b'\n');
            }
            header
        }
        Request::AdoptFrame {
            slice,
            version,
            body,
        } if body.len() <= MAX_ADOPT_BYTES => {
            let header = writeln!(out, "{name} {slice} {version} {}", body.len());
            out.extend_from_slice(body);
            header
        }
        Request::Mode
        | Request::Least
        | Request::Median
        | Request::Stats
        | Request::Metrics
        | Request::Promote
        | Request::Map
        | Request::BinUpgrade
        | Request::Quit
        | Request::Shutdown => writeln!(out, "{name}"),
        Request::Snapshot(_)
        | Request::MapSet(_)
        | Request::AdoptFrame { .. }
        | Request::SnapshotFetch
        | Request::Batch(_)
        | Request::BatchFrame { .. }
        | Request::Adopt { .. } => return Err(format!("{name} has no text encoding")),
    };
    Ok(())
}

/// Reads the text reply to `req` off a blocking reader (client side),
/// the inverse of `encode`: it yields the [`Response`] the server
/// encoded. A reply that does not answer `req`, or whose length prefix
/// is implausible, is an [`io::ErrorKind::InvalidData`] error; a
/// connection closed before the reply, [`io::ErrorKind::UnexpectedEof`].
pub fn read_response<R: BufRead>(r: &mut R, req: &Request) -> io::Result<Response> {
    let line = read_line(r)?;
    if let Some(msg) = line.strip_prefix("ERR ") {
        return Ok(Response::Err(msg.to_string()));
    }
    let (word, rest) = line.split_once(' ').unwrap_or((&line, ""));
    let reply = match (req, word) {
        (Request::Add(_) | Request::Remove(_) | Request::Trace(_), "OK") if rest.is_empty() => {
            Some(Response::Ok)
        }
        (Request::BinUpgrade, "OK") if rest == "BIN" => Some(Response::Upgraded),
        (Request::Promote, "OK") => {
            pair(rest).map(|(lsn, epoch)| Response::Promoted { lsn, epoch })
        }
        (
            Request::BatchFrame { .. }
            | Request::Snapshot(_)
            | Request::MapSet(_)
            | Request::Migrate { .. }
            | Request::AdoptFrame { .. },
            "OK",
        ) => num(rest).map(Response::Count),
        (Request::Quit | Request::Shutdown, "BYE") if rest.is_empty() => Some(Response::Bye),
        (Request::Mode, "NONE") => Some(Response::Mode(None)),
        (Request::Mode, "MODE") => pair(rest).map(|p| Response::Mode(Some(p))),
        (Request::Least, "NONE") => Some(Response::Least(None)),
        (Request::Least, "LEAST") => pair(rest).map(|p| Response::Least(Some(p))),
        (Request::Median, "NONE") => Some(Response::Median(None)),
        (Request::Median, "MEDIAN") => num(rest).map(|f| Response::Median(Some(f))),
        (Request::Freq(_), "FREQ") => pair(rest).map(|(x, f)| Response::Freq(x, f)),
        (Request::Cal(_), "CAL") => num(rest).map(Response::Cal),
        (Request::Stats, "STATS") => Some(Response::Stats(rest.to_string())),
        (Request::Map, "MAP") => Some(Response::Map(rest.to_string())),
        (Request::TopK(_), "TOPK") => match num(rest) {
            Some(n) => Some(Response::TopK(read_top_k(r, n)?)),
            None => None,
        },
        (Request::Metrics, "METRICS") => sized_payload(r, rest)?.map(Response::Metrics),
        (Request::Logtail(_), "LOGTAIL") => sized_payload(r, rest)?.map(Response::Logtail),
        (Request::Spans(_), "SPANS") => sized_payload(r, rest)?.map(Response::Spans),
        _ => None,
    };
    reply.ok_or_else(|| invalid(format!("unexpected reply '{line}' to {}", req.name())))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One reply line, its `\n` (and any `\r`) stripped.
pub(crate) fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    line.truncate(line.trim_end_matches(['\r', '\n']).len());
    Ok(line)
}

fn num<T: FromStr>(field: &str) -> Option<T> {
    field.parse().ok()
}

fn pair<A: FromStr, B: FromStr>(fields: &str) -> Option<(A, B)> {
    let (a, b) = fields.split_once(' ')?;
    Some((num(a)?, num(b)?))
}

/// The `n` `<obj> <freq>` lines after a `TOPK <n>` header. `n` is
/// bounded like a binary `TOPK` reply, so a hostile header cannot make
/// the client allocate unboundedly.
fn read_top_k<R: BufRead>(r: &mut R, n: usize) -> io::Result<Vec<(u32, i64)>> {
    if n > MAX_BATCH {
        return Err(invalid(format!("TOPK reply count {n} is implausible")));
    }
    (0..n)
        .map(|_| {
            let line = read_line(r)?;
            pair(&line).ok_or_else(|| invalid(format!("malformed TOPK entry '{line}'")))
        })
        .collect()
}

/// The payload after a `<NAME> <nbytes>` header ([`sized`]); `None`
/// when `len` is not a number.
fn sized_payload<R: BufRead>(r: &mut R, len: &str) -> io::Result<Option<String>> {
    let Some(n) = num::<usize>(len) else {
        return Ok(None);
    };
    if n > 1 << 24 {
        return Err(invalid(format!("payload length {n} is implausible")));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| invalid("payload is not utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replication_handshake_is_the_text_codecs_replicate_line() {
        for start_lsn in [0, 1, u64::MAX] {
            for epoch in [0, 1, u64::MAX] {
                let req = Request::Replicate { start_lsn, epoch };
                let mut want = Vec::new();
                encode_request(&mut want, &req).unwrap();
                let line = sprofile_replicate::frame::encode_replicate(start_lsn, epoch);
                assert_eq!(line.as_bytes(), want, "{req:?}");
                assert_eq!(parse_request(line.trim_end()), Ok(Some(req)));
            }
        }
    }

    #[test]
    fn parses_every_command() {
        for (line, want) in [
            ("ADD 7", Request::Add(7)),
            ("add 7", Request::Add(7)),
            ("RM 3", Request::Remove(3)),
            ("BATCH 128", Request::Batch(128)),
            ("MODE", Request::Mode),
            ("LEAST", Request::Least),
            ("FREQ 9", Request::Freq(9)),
            ("MEDIAN", Request::Median),
            ("TOPK 5", Request::TopK(5)),
            ("CAL -2", Request::Cal(-2)),
            ("STATS", Request::Stats),
            ("METRICS", Request::Metrics),
            ("metrics", Request::Metrics),
            ("LOGTAIL", Request::Logtail(0)),
            ("LOGTAIL 25", Request::Logtail(25)),
            ("SPANS", Request::Spans(0)),
            ("SPANS 10", Request::Spans(10)),
            ("spans 3", Request::Spans(3)),
            ("TRACE 987654321", Request::Trace(987654321)),
            ("TRACE 0", Request::Trace(0)),
            (
                "SNAPSHOT /tmp/x.snap",
                Request::Snapshot("/tmp/x.snap".into()),
            ),
            (
                "REPLICATE 512",
                Request::Replicate {
                    start_lsn: 512,
                    epoch: 0,
                },
            ),
            (
                "replicate 1 7",
                Request::Replicate {
                    start_lsn: 1,
                    epoch: 7,
                },
            ),
            ("PROMOTE", Request::Promote),
            ("MAP", Request::Map),
            (
                "MAPSET 3 4 a:1,b:2 0,1,0,1",
                Request::MapSet(PartitionMap {
                    version: 3,
                    slices: 4,
                    nodes: vec!["a:1".into(), "b:2".into()],
                    owners: vec![0, 1, 0, 1],
                }),
            ),
            (
                "MIGRATE 2 1",
                Request::Migrate {
                    slice: 2,
                    target: 1,
                },
            ),
            (
                "adopt 3 7 1024",
                Request::Adopt {
                    slice: 3,
                    version: 7,
                    nbytes: 1024,
                },
            ),
            ("BIN", Request::BinUpgrade),
            ("bin", Request::BinUpgrade),
            ("QUIT", Request::Quit),
            ("SHUTDOWN", Request::Shutdown),
        ] {
            assert_eq!(parse_request(line).unwrap(), Some(want), "{line:?}");
        }
    }

    #[test]
    fn blank_and_comment_lines_are_silent() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("   ").unwrap(), None);
        assert_eq!(parse_request("# hi").unwrap(), None);
    }

    #[test]
    fn malformed_requests_are_errors() {
        for line in [
            "ADD",
            "ADD banana",
            "ADD -1",
            "FREQ",
            "TOPK x",
            "CAL",
            "BATCH",
            "BATCH -3",
            "SNAPSHOT",
            "MODE 3",
            "METRICS 1",
            "LOGTAIL x",
            "LOGTAIL -1",
            "SPANS x",
            "SPANS -1",
            "TRACE",
            "TRACE abc",
            "TRACE -1",
            "QUIT now",
            "REPLICATE",
            "REPLICATE x",
            "REPLICATE -1",
            "REPLICATE 1 x",
            "REPLICATE 1 2 3",
            "PROMOTE 3",
            "BIN now",
            "MAP 1",
            "MAPSET",
            "MAPSET 1 2 a:1",     // missing owners
            "MAPSET 1 0 a:1 0",   // zero slices
            "MAPSET 1 2 a:1 0,5", // owner index out of range
            "MIGRATE",
            "MIGRATE 1",
            "MIGRATE 1 2 3",
            "MIGRATE x 1",
            "ADOPT",
            "ADOPT 1 2",
            "ADOPT 1 2 3 4",
            "ADOPT 1 2 999999999999",
            "frobnicate 1",
        ] {
            assert!(parse_request(line).is_err(), "{line:?} should be rejected");
        }
    }

    #[test]
    fn wire_proto_parses_and_names() {
        assert_eq!(WireProto::parse("text").unwrap(), WireProto::Text);
        assert_eq!(WireProto::parse("BIN").unwrap(), WireProto::Bin);
        assert_eq!(WireProto::parse("binary").unwrap(), WireProto::Bin);
        assert!(WireProto::parse("utf7").is_err());
        assert_eq!(WireProto::Text.name(), "text");
        assert_eq!(WireProto::Bin.name(), "bin");
        assert_eq!(WireProto::default(), WireProto::Text);
    }

    #[test]
    fn batch_header_is_bounded() {
        assert!(parse_request(&format!("BATCH {}", MAX_BATCH)).is_ok());
        let err = parse_request(&format!("BATCH {}", MAX_BATCH + 1)).unwrap_err();
        assert!(err.contains("maximum"));
    }

    #[test]
    fn tuple_lines_parse_all_aliases() {
        for (line, object, is_add) in [
            ("a 1", 1, true),
            ("add 2", 2, true),
            ("+ 3", 3, true),
            ("+4", 4, true),
            ("r 5", 5, false),
            ("remove 6", 6, false),
            ("rm 7", 7, false),
            ("- 8", 8, false),
            ("-9", 9, false),
        ] {
            assert_eq!(
                parse_tuple_line(line).unwrap(),
                Tuple { object, is_add },
                "{line:?}"
            );
        }
    }

    #[test]
    fn bad_tuple_lines_are_errors() {
        for line in ["", "a", "a x", "x 1", "12"] {
            assert!(parse_tuple_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn text_decoder_reassembles_bodies_split_across_reads() {
        let mut d = TextDecoder::default();
        // Header plus part of the body: consumed, not yet a request.
        assert_eq!(d.decode(b"# hi\nBATCH", false), (5, Decoded::Blank));
        assert_eq!(
            d.decode(b"BATCH 3\na 1\nx", false),
            (12, Decoded::Incomplete)
        );
        // The bad second line is remembered; the frame still completes.
        let (used, got) = d.decode(b"x 9\n+4\nMODE\n", false);
        assert_eq!(used, 7);
        assert_eq!(
            got,
            Decoded::Request(Request::BatchFrame {
                count: 3,
                tuples: vec![Tuple::add(1)],
                bad: Some("tuple 2: unknown action 'x' (use a/add/+ or r/remove/rm/-)".into()),
            })
        );
        assert_eq!(
            d.decode(b"MODE\n", false),
            (5, Decoded::Request(Request::Mode))
        );
        // ADOPT bodies are raw bytes, newlines included.
        assert_eq!(
            d.decode(b"ADOPT 2 7 4\nab", false),
            (14, Decoded::Incomplete)
        );
        assert_eq!(
            d.decode(b"\ncdQUIT\n", false),
            (
                2,
                Decoded::Request(Request::AdoptFrame {
                    slice: 2,
                    version: 7,
                    body: b"ab\nc".to_vec(),
                })
            )
        );
        // At EOF a trailing line without its newline is still a request.
        assert_eq!(
            d.decode(b"QUIT", true),
            (4, Decoded::Request(Request::Quit))
        );
        let (_, bad) = d.decode(b"NOPE\n", false);
        assert!(
            matches!(bad, Decoded::Malformed { fatal: false, .. }),
            "{bad:?}"
        );
    }

    #[test]
    fn text_replies_encode_byte_exact() {
        for (reply, want) in [
            (Response::Ok, "OK\n"),
            (Response::Count(5), "OK 5\n"),
            (Response::Bye, "BYE\n"),
            (Response::Upgraded, "OK BIN\n"),
            (Response::Err("readonly".into()), "ERR readonly\n"),
            (Response::Mode(Some((3, 7))), "MODE 3 7\n"),
            (Response::Least(Some((4, -1))), "LEAST 4 -1\n"),
            (Response::Least(None), "NONE\n"),
            (Response::Freq(9, 2), "FREQ 9 2\n"),
            (Response::Median(Some(0)), "MEDIAN 0\n"),
            (Response::TopK(vec![(1, 5), (2, 4)]), "TOPK 2\n1 5\n2 4\n"),
            (Response::Cal(6), "CAL 6\n"),
            (Response::Stats("m=4".into()), "STATS m=4\n"),
            (Response::Spans("a\nb\n".into()), "SPANS 4\na\nb\n"),
            (Response::Promoted { lsn: 8, epoch: 2 }, "OK 8 2\n"),
            (Response::Map("1 2 a,b 0,1".into()), "MAP 1 2 a,b 0,1\n"),
            (
                Response::Stream {
                    start_lsn: 1,
                    epoch: 0,
                },
                "",
            ),
        ] {
            let mut out = Vec::new();
            encode(&mut out, &reply);
            assert_eq!(String::from_utf8(out).unwrap(), want, "{reply:?}");
        }
    }

    use crate::bin_proto;
    use proptest::prelude::*;

    const ALPHABET: &[u8] = b"abxyz019_=./:";

    /// A short non-empty string without spaces or line breaks.
    fn word() -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), 1..10)
            .prop_map(|ix| ix.into_iter().map(|i| char::from(ALPHABET[i])).collect())
    }

    fn partition_map() -> impl Strategy<Value = PartitionMap> {
        (1u32..6, 1u32..4, any::<u64>()).prop_flat_map(|(slices, nodes, version)| {
            prop::collection::vec(0..nodes, slices as usize..slices as usize + 1).prop_map(
                move |owners| PartitionMap {
                    version,
                    slices,
                    nodes: (0..nodes).map(|i| format!("10.0.0.{i}:7979")).collect(),
                    owners,
                },
            )
        })
    }

    /// Every request shape, with arbitrary arguments.
    fn request() -> impl Strategy<Value = Request> {
        prop_oneof![
            any::<u32>().prop_map(Request::Add),
            any::<u32>().prop_map(Request::Remove),
            any::<usize>().prop_map(Request::Batch),
            prop::collection::vec((any::<u32>(), any::<bool>()), 0..20).prop_map(|ts| {
                Request::batch(
                    ts.into_iter()
                        .map(|(object, is_add)| Tuple { object, is_add })
                        .collect(),
                )
            }),
            Just(Request::Mode),
            Just(Request::Least),
            any::<u32>().prop_map(Request::Freq),
            Just(Request::Median),
            any::<u32>().prop_map(Request::TopK),
            any::<i64>().prop_map(Request::Cal),
            Just(Request::Stats),
            Just(Request::Metrics),
            any::<usize>().prop_map(Request::Logtail),
            any::<usize>().prop_map(Request::Spans),
            any::<u64>().prop_map(Request::Trace),
            word().prop_map(Request::Snapshot),
            Just(Request::SnapshotFetch),
            (any::<u64>(), any::<u64>())
                .prop_map(|(start_lsn, epoch)| Request::Replicate { start_lsn, epoch }),
            Just(Request::Promote),
            Just(Request::Map),
            partition_map().prop_map(Request::MapSet),
            (any::<u32>(), any::<u32>())
                .prop_map(|(slice, target)| Request::Migrate { slice, target }),
            (any::<u32>(), any::<u64>(), any::<usize>()).prop_map(|(slice, version, nbytes)| {
                Request::Adopt {
                    slice,
                    version,
                    nbytes,
                }
            }),
            (
                any::<u32>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..40)
            )
                .prop_map(|(slice, version, body)| Request::AdoptFrame {
                    slice,
                    version,
                    body,
                }),
            Just(Request::BinUpgrade),
            Just(Request::Quit),
            Just(Request::Shutdown),
        ]
    }

    /// The nine verbs that have no binary opcode.
    fn text_only(req: &Request) -> bool {
        matches!(
            req,
            Request::Metrics
                | Request::Logtail(_)
                | Request::Spans(_)
                | Request::Snapshot(_)
                | Request::Replicate { .. }
                | Request::Promote
                | Request::MapSet(_)
                | Request::Migrate { .. }
                | Request::AdoptFrame { .. }
        )
    }

    /// Header forms: the decoders hand the server complete frames only.
    fn header(req: &Request) -> bool {
        matches!(req, Request::Batch(_) | Request::Adopt { .. })
    }

    /// What a drawn reply is built from: whether it is an `ERR`, a
    /// count, a pair, a text and `TOPK` entries.
    type ReplyValues = (bool, u32, Option<(u32, i64)>, String, Vec<(u32, i64)>);

    /// The reply the server could give `req`, built from the drawn
    /// values; `None` where a request gets no reply frame.
    fn reply_to(req: &Request, (err, n, pair, text, entries): ReplyValues) -> Option<Response> {
        if err {
            return Some(Response::Err(text));
        }
        let freq = pair.map(|(_, f)| f);
        Some(match req {
            Request::Add(_) | Request::Remove(_) | Request::Trace(_) => Response::Ok,
            Request::BatchFrame { .. }
            | Request::Snapshot(_)
            | Request::MapSet(_)
            | Request::Migrate { .. }
            | Request::AdoptFrame { .. } => Response::Count(u64::from(n)),
            Request::Quit | Request::Shutdown => Response::Bye,
            Request::BinUpgrade => Response::Upgraded,
            Request::Mode => Response::Mode(pair),
            Request::Least => Response::Least(pair),
            Request::Median => Response::Median(freq),
            Request::Freq(x) => Response::Freq(*x, freq.unwrap_or_default()),
            Request::TopK(_) => Response::TopK(entries),
            Request::Cal(_) => Response::Cal(n),
            Request::Stats => Response::Stats(format!("{text} m={n}")),
            Request::Map => Response::Map(text),
            Request::Metrics => Response::Metrics(format!("{text}\n{n}\n")),
            Request::Logtail(_) => Response::Logtail(format!("{text}\n")),
            Request::Spans(_) => Response::Spans(text),
            Request::Promote => Response::Promoted {
                lsn: u64::from(n),
                epoch: freq.unwrap_or_default().unsigned_abs(),
            },
            Request::SnapshotFetch => Response::Snapshot(text.into_bytes()),
            // A validated REPLICATE turns into a stream, not a reply.
            Request::Replicate { .. } | Request::Batch(_) | Request::Adopt { .. } => return None,
        })
    }

    fn reply_values() -> impl Strategy<Value = ReplyValues> {
        (
            (0u8..8, any::<u32>()),
            (any::<bool>(), any::<u32>(), any::<i64>()),
            word(),
            prop::collection::vec((any::<u32>(), any::<i64>()), 0..6),
        )
            .prop_map(|((e, n), (some, x, f), text, entries)| {
                (e == 0, n, some.then_some((x, f)), text, entries)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every request a protocol can carry encodes and decodes back
        /// to itself through the server's decoder (binary carries a
        /// single ADD/RM as its one-tuple BATCH); every other request is
        /// refused with an error naming it, and nothing is written.
        #[test]
        fn requests_round_trip_through_the_server_decoders(req in request()) {
            let mut text = Vec::new();
            match encode_request(&mut text, &req) {
                Ok(()) => {
                    let (used, got) = TextDecoder::default().decode(&text, false);
                    prop_assert_eq!(used, text.len());
                    prop_assert_eq!(got, Decoded::Request(req.clone()));
                }
                Err(msg) => {
                    prop_assert!(text.is_empty());
                    prop_assert!(msg.contains(req.name()), "{msg}");
                    prop_assert!(header(&req) || req == Request::SnapshotFetch, "{req:?}");
                }
            }
            let mut bin = Vec::new();
            match bin_proto::encode_request(&mut bin, &req) {
                Ok(()) => {
                    let want = match req {
                        Request::Add(x) => Request::batch(vec![Tuple::add(x)]),
                        Request::Remove(x) => Request::batch(vec![Tuple::remove(x)]),
                        other => other,
                    };
                    prop_assert_eq!(bin_proto::decode(&bin), (bin.len(), Decoded::Request(want)));
                }
                Err(msg) => {
                    prop_assert!(bin.is_empty());
                    prop_assert!(msg.contains(req.name()), "{msg}");
                    prop_assert!(
                        text_only(&req) || header(&req) || req == Request::BinUpgrade,
                        "{req:?}"
                    );
                }
            }
        }

        /// Every reply the server encodes for a request reads back, in
        /// both protocols, as the same `Response`, consuming exactly its
        /// own bytes.
        #[test]
        fn replies_read_back_as_the_response_the_server_encoded(
            (req, values) in (request(), reply_values())
        ) {
            let Some(reply) = reply_to(&req, values) else {
                return Ok(());
            };
            if encode_request(&mut Vec::new(), &req).is_ok() {
                let mut wire = Vec::new();
                encode(&mut wire, &reply);
                let mut rest = &wire[..];
                prop_assert_eq!(read_response(&mut rest, &req).expect("text reply"), reply.clone());
                prop_assert!(rest.is_empty());
            }
            if bin_proto::encode_request(&mut Vec::new(), &req).is_ok() {
                let mut wire = Vec::new();
                bin_proto::encode(&mut wire, &reply);
                let mut rest = &wire[..];
                prop_assert_eq!(bin_proto::read_response(&mut rest, &req).expect("bin reply"), reply);
                prop_assert!(rest.is_empty());
            }
        }
    }

    #[test]
    fn encoders_refuse_what_the_decoders_would_not_return() {
        let mut map = PartitionMap::round_robin(2, vec!["a:1".into()]);
        map.owners[1] = 5;
        let oversized = Request::batch(vec![Tuple::add(0); MAX_BATCH + 1]);
        let mut undecoded = Request::batch(vec![Tuple::add(1)]);
        if let Request::BatchFrame { bad, .. } = &mut undecoded {
            *bad = Some("tuple 2: bad".into());
        }
        for req in [oversized, undecoded] {
            assert!(encode_request(&mut Vec::new(), &req).is_err());
            assert!(bin_proto::encode_request(&mut Vec::new(), &req).is_err());
        }
        for path in ["", " a", "a\nQUIT"] {
            let req = Request::Snapshot(path.into());
            assert!(encode_request(&mut Vec::new(), &req).is_err(), "{path:?}");
        }
        assert!(encode_request(&mut Vec::new(), &Request::MapSet(map)).is_err());
    }

    #[test]
    fn a_binary_single_reads_its_batch_ack_as_ok() {
        // The server answers the one-tuple BATCH an ADD travels as.
        let mut wire = Vec::new();
        bin_proto::encode(&mut wire, &Response::Count(1));
        for req in [Request::Add(3), Request::Remove(3)] {
            let got = bin_proto::read_response(&mut &wire[..], &req).unwrap();
            assert_eq!(got, Response::Ok);
        }
    }
}
