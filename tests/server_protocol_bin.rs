//! Binary-protocol property suite: the length-prefixed wire format
//! negotiated with `BIN` must agree with the same offline [`SProfile`]
//! oracle the text suite uses, and malformed binary input — hostile
//! length prefixes, bad tuple bytes, unknown opcodes, connections
//! dropped mid-frame — must yield a typed `ERR` frame (closing only
//! when framing itself can no longer be trusted), never a hang, a
//! panic, or a partially-applied batch.
//!
//! Mirrors `tests/server_protocol.rs`: long-lived servers per backend,
//! state accumulating across proptest cases in lockstep with the
//! oracles. The random sessions also replay over text against a twin
//! server, so both wire protocols must give the same answers and move
//! the same counters.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use sprofile::{SProfile, Tuple};
use sprofile_server::bin_proto::{self, Reply};
use sprofile_server::protocol::{Request, Response};
use sprofile_server::{
    loadgen, BackendKind, Client, ClientError, LoadgenConfig, Server, ServerConfig, WireProto,
};

/// Small universe so frequencies collide and tie-breaking matters.
const M: u32 = 24;

struct BackendUnderTest {
    addr: String,
    oracle: SProfile,
    /// Keeps the event loop alive for the whole test process.
    _server: Server,
}

/// Two servers of one backend kind, one driven in binary and one in
/// text, fed the same sessions so their states stay equal.
struct Twins {
    bin: String,
    text: String,
    oracle: SProfile,
    _servers: [Server; 2],
}

struct Ctx {
    backends: Vec<BackendUnderTest>,
    twins: Vec<Twins>,
}

const KINDS: [BackendKind; 2] = [
    BackendKind::Sharded { shards: 5 },
    BackendKind::Sharded { shards: 1 },
];

fn start(kind: BackendKind) -> Server {
    Server::start(
        ServerConfig {
            m: M,
            backend: kind,
            workers: 2,
            // Tiny threshold so sessions cross flush boundaries
            // constantly.
            flush_every: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind test server")
}

fn ctx() -> MutexGuard<'static, Ctx> {
    static CTX: OnceLock<Mutex<Ctx>> = OnceLock::new();
    CTX.get_or_init(|| {
        let backends = KINDS
            .into_iter()
            .map(|kind| {
                let server = start(kind);
                BackendUnderTest {
                    addr: server.local_addr().to_string(),
                    oracle: SProfile::new(M),
                    _server: server,
                }
            })
            .collect();
        let twins = KINDS
            .into_iter()
            .map(|kind| {
                let servers = [start(kind), start(kind)];
                Twins {
                    bin: servers[0].local_addr().to_string(),
                    text: servers[1].local_addr().to_string(),
                    oracle: SProfile::new(M),
                    _servers: servers,
                }
            })
            .collect();
        Mutex::new(Ctx { backends, twins })
    })
    .lock()
    .expect("ctx lock poisoned")
}

/// A raw socket speaking the binary protocol after the `BIN` upgrade,
/// for crafting frames the [`Client`] refuses to produce. Read timeouts
/// turn a would-be hang into a test failure.
struct RawBin {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawBin {
    /// Connects without upgrading (the first bytes are the test's).
    fn connect_raw(addr: &str) -> RawBin {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        RawBin { stream, reader }
    }

    /// Connects and performs the text `BIN` handshake.
    fn connect(addr: &str) -> RawBin {
        let mut raw = RawBin::connect_raw(addr);
        raw.write(b"BIN\n");
        assert_eq!(raw.read_line(), "OK BIN");
        raw
    }

    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.stream.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        line.trim_end().to_string()
    }

    fn reply(&mut self) -> Reply {
        bin_proto::read_reply(&mut self.reader).expect("read reply")
    }

    /// Asserts the server closed its side (EOF, not a hang or garbage).
    fn assert_closed(&mut self) {
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("expected EOF, got more bytes"),
            Err(e) => panic!("expected clean EOF, got {e}"),
        }
    }
}

/// One step of a well-formed session (same shape as the text suite).
#[derive(Clone, Debug)]
enum Op {
    Add(u32),
    Remove(u32),
    Batch(Vec<(u32, bool)>),
    Mode,
    Least,
    Freq(u32),
    Median,
    TopK(u32),
    Cal(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..M).prop_map(Op::Add),
        (0u32..M).prop_map(Op::Remove),
        prop::collection::vec((0u32..M, any::<bool>()), 0..24).prop_map(Op::Batch),
        Just(Op::Mode),
        Just(Op::Least),
        (0u32..M).prop_map(Op::Freq),
        Just(Op::Median),
        (0u32..12).prop_map(Op::TopK),
        (-3i64..8).prop_map(Op::Cal),
    ]
}

/// Deterministic extreme witness the server promises: smallest tied id.
fn oracle_mode(oracle: &SProfile) -> Option<(u32, i64)> {
    oracle.mode().map(|e| {
        let obj = oracle.mode_objects().iter().copied().min().expect("tied");
        (obj, e.frequency)
    })
}

fn oracle_least(oracle: &SProfile) -> Option<(u32, i64)> {
    oracle.least().map(|e| {
        let obj = oracle.least_objects().iter().copied().min().expect("tied");
        (obj, e.frequency)
    })
}

/// A session of well-formed ops with one out-of-universe `FREQ` and
/// one `BATCH` holding an object ≥ m spliced in, so the `ERR` path is
/// exercised too.
fn session_strategy() -> impl Strategy<Value = Vec<Op>> {
    (
        prop::collection::vec(op_strategy(), 1..40),
        (
            M..4 * M,
            prop::collection::vec((0u32..M, any::<bool>()), 0..8),
        ),
        (any::<usize>(), any::<usize>(), any::<usize>()),
    )
        .prop_map(|(mut ops, (far, mut batch), (at, i, j))| {
            batch.insert(at % (batch.len() + 1), (far, true));
            ops.insert(i % (ops.len() + 1), Op::Batch(batch));
            ops.insert(j % (ops.len() + 1), Op::Freq(far));
            ops
        })
}

/// One op's decoded answer, in either protocol.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Count(u64),
    Pair(Option<(u32, i64)>),
    Freq(i64),
    Median(Option<i64>),
    TopK(Vec<(u32, i64)>),
    Cal(u32),
    Err(String),
}

fn tuples(batch: &[(u32, bool)]) -> Vec<Tuple> {
    batch
        .iter()
        .map(|&(object, is_add)| Tuple { object, is_add })
        .collect()
}

/// Sends one op. Singles travel as one-tuple `BATCH` frames in both
/// protocols (the binary protocol has no single-tuple opcode), so both
/// sessions exercise the same verbs.
fn ask(client: &mut Client, op: &Op) -> Answer {
    let answer = match op {
        Op::Add(x) => client.batch(&[Tuple::add(*x)]).map(Answer::Count),
        Op::Remove(x) => client.batch(&[Tuple::remove(*x)]).map(Answer::Count),
        Op::Batch(batch) => client.batch(&tuples(batch)).map(Answer::Count),
        Op::Mode => client.mode().map(Answer::Pair),
        Op::Least => client.least().map(Answer::Pair),
        Op::Freq(x) => client.freq(*x).map(Answer::Freq),
        Op::Median => client.median().map(Answer::Median),
        Op::TopK(k) => client.top_k(*k).map(Answer::TopK),
        Op::Cal(f) => client.count_at_least(*f).map(Answer::Cal),
    };
    match answer {
        Ok(answer) => answer,
        Err(ClientError::Server(msg)) => Answer::Err(msg),
        Err(e) => panic!("{op:?}: {e}"),
    }
}

/// The answer the server owes `op`, applying its writes to the oracle.
fn expect(oracle: &mut SProfile, op: &Op) -> Answer {
    let outside = |x: u32| format!("object {x} outside universe [0, {M})");
    match op {
        Op::Add(x) => expect(oracle, &Op::Batch(vec![(*x, true)])),
        Op::Remove(x) => expect(oracle, &Op::Batch(vec![(*x, false)])),
        Op::Batch(batch) => match batch.iter().position(|&(x, _)| x >= M) {
            Some(i) => Answer::Err(format!("tuple {}: {}", i + 1, outside(batch[i].0))),
            None => {
                for t in tuples(batch) {
                    oracle.apply(t);
                }
                Answer::Count(batch.len() as u64)
            }
        },
        Op::Mode => Answer::Pair(oracle_mode(oracle)),
        Op::Least => Answer::Pair(oracle_least(oracle)),
        Op::Freq(x) if *x >= M => Answer::Err(outside(*x)),
        Op::Freq(x) => Answer::Freq(oracle.frequency(*x)),
        Op::Median => Answer::Median(oracle.median()),
        Op::TopK(k) => Answer::TopK(oracle.top_k(*k)),
        Op::Cal(f) => Answer::Cal(oracle.count_at_least(*f)),
    }
}

/// Runs `ops` on one connection in `proto`, returning every answer.
fn run_session(addr: &str, proto: WireProto, ops: &[Op]) -> Vec<Answer> {
    let mut client = Client::connect_with(addr, proto).expect("connect");
    assert_eq!(client.proto(), proto);
    let answers = ops.iter().map(|op| ask(&mut client, op)).collect();
    client.quit().expect("QUIT");
    answers
}

/// The counters a session moves: the `STATS` fields below plus every
/// verb's `sprofile_request_duration_us_count`.
fn counters(addr: &str) -> BTreeMap<String, u64> {
    let mut c = Client::connect(addr).expect("probe connect");
    let stats = c.stats().expect("STATS");
    let metrics = c.metrics().expect("METRICS");
    c.quit().expect("QUIT");
    let mut out = BTreeMap::new();
    for key in ["queries", "batches", "batch_tuples", "applied", "errors"] {
        let value = Client::stats_field(&stats, key).unwrap_or_else(|| panic!("{key}"));
        out.insert(key.to_string(), value);
    }
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("sprofile_request_duration_us_count{verb=\"") {
            let (verb, count) = rest.split_once("\"} ").expect("labelled sample");
            out.insert(format!("{verb} requests"), count.parse().expect("count"));
        }
    }
    out
}

/// `ops` over `proto` on `addr`: the answers, and how far the session
/// moved each counter.
fn measured_session(addr: &str, proto: WireProto, ops: &[Op]) -> (Vec<Answer>, Vec<(String, u64)>) {
    let before = counters(addr);
    let answers = run_session(addr, proto, ops);
    let delta = counters(addr)
        .into_iter()
        .map(|(key, after)| {
            let moved = after - before.get(&key).copied().unwrap_or(0);
            (key, moved)
        })
        .collect();
    (answers, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random sessions, each upgrading to binary on its own connection,
    /// agree with the oracle on every answer for both shapes — the
    /// exact property the text suite proves, over the binary framing.
    /// The same session replayed over text on a twin server gives the
    /// same decoded answers, `ERR`s included, and moves the same
    /// counters.
    #[test]
    fn random_bin_sessions_agree_with_the_oracle(ops in session_strategy()) {
        let mut ctx = ctx();
        for twins in &mut ctx.twins {
            let (bin, bin_moved) = measured_session(&twins.bin, WireProto::Bin, &ops);
            let (text, text_moved) = measured_session(&twins.text, WireProto::Text, &ops);
            let expected: Vec<Answer> =
                ops.iter().map(|op| expect(&mut twins.oracle, op)).collect();
            prop_assert_eq!(&bin, &expected);
            prop_assert_eq!(&text, &bin);
            prop_assert_eq!(text_moved, bin_moved);
        }
    }
}

/// An unknown opcode means the framing can no longer be trusted: one
/// typed `ERR` frame, then the server closes the connection.
#[test]
fn unknown_opcode_gets_a_typed_err_then_close() {
    let ctx = ctx();
    for but in &ctx.backends {
        let mut raw = RawBin::connect(but.addr.as_str());
        raw.write(&[0x7F]);
        match raw.reply() {
            Reply::Err(msg) => assert!(msg.contains("unknown binary opcode"), "{msg}"),
            other => panic!("expected ERR, got {other:?}"),
        }
        raw.assert_closed();
    }
}

/// A hostile `BATCH` length prefix is refused before the payload is
/// buffered: typed `ERR`, then close.
#[test]
fn hostile_batch_length_prefix_errs_then_closes() {
    let ctx = ctx();
    for but in &ctx.backends {
        let mut raw = RawBin::connect(but.addr.as_str());
        let mut frame = vec![bin_proto::REQ_BATCH];
        let count = (sprofile_server::protocol::MAX_BATCH + 1) as u32;
        frame.extend_from_slice(&count.to_le_bytes());
        raw.write(&frame);
        match raw.reply() {
            Reply::Err(msg) => assert!(msg.contains("exceeds maximum"), "{msg}"),
            other => panic!("expected ERR, got {other:?}"),
        }
        raw.assert_closed();
    }
}

/// Semantic errors inside a well-framed `BATCH` (bad op byte, object
/// outside the universe) consume the frame, answer one typed `ERR`,
/// apply nothing — and the connection stays usable, like the text
/// protocol's bad-body behavior.
#[test]
fn bad_tuples_in_well_framed_batches_err_without_desync() {
    let mut ctx = ctx();
    for but in &mut ctx.backends {
        let before: Vec<i64> = (0..M).map(|x| but.oracle.frequency(x)).collect();
        let mut raw = RawBin::connect(but.addr.as_str());

        // Tuple 2 has op byte 2 (neither add nor remove).
        let mut frame = vec![bin_proto::REQ_BATCH];
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&[1, 3, 0, 0, 0]); // add 3 (discarded with the frame)
        frame.extend_from_slice(&[2, 4, 0, 0, 0]); // bad op byte
        raw.write(&frame);
        match raw.reply() {
            Reply::Err(msg) => assert!(msg.contains("tuple 2"), "{msg}"),
            other => panic!("expected ERR, got {other:?}"),
        }

        // Object outside the universe, well-framed.
        let mut frame = vec![bin_proto::REQ_BATCH];
        frame.extend_from_slice(&1u32.to_le_bytes());
        bin_proto::put_tuple(
            &mut frame,
            Tuple {
                object: 99_999,
                is_add: true,
            },
        );
        raw.write(&frame);
        match raw.reply() {
            Reply::Err(msg) => assert!(msg.contains("outside universe"), "{msg}"),
            other => panic!("expected ERR, got {other:?}"),
        }

        // Still in sync: every frequency matches the oracle and nothing
        // from the rejected frames landed.
        for x in 0..M {
            let mut q = Vec::new();
            bin_proto::put_freq(&mut q, x);
            raw.write(&q);
            assert_eq!(
                raw.reply(),
                Reply::Freq(x, before[x as usize]),
                "object {x}"
            );
        }
        let mut q = Vec::new();
        bin_proto::put_simple(&mut q, bin_proto::REQ_QUIT);
        raw.write(&q);
        assert_eq!(raw.reply(), Reply::Ok(0));
    }
}

/// A connection dropped mid-frame (the length prefix promised far more
/// tuples than were sent) discards the partial `BATCH` whole — no
/// partial apply, no hang, no panic.
#[test]
fn mid_frame_disconnect_drops_the_batch_whole() {
    let mut ctx = ctx();
    for but in &mut ctx.backends {
        let expect = but.oracle.frequency(3);
        {
            let mut raw = RawBin::connect(but.addr.as_str());
            let mut frame = vec![bin_proto::REQ_BATCH];
            frame.extend_from_slice(&1_000u32.to_le_bytes());
            bin_proto::put_tuple(
                &mut frame,
                Tuple {
                    object: 3,
                    is_add: true,
                },
            );
            bin_proto::put_tuple(
                &mut frame,
                Tuple {
                    object: 3,
                    is_add: true,
                },
            );
            raw.write(&frame);
            // Drop mid-body.
        }
        std::thread::sleep(Duration::from_millis(60));
        let mut client = Client::connect(but.addr.as_str()).expect("reconnect");
        assert_eq!(
            client.freq(3).expect("FREQ"),
            expect,
            "truncated binary batch must not apply"
        );
        client.quit().expect("QUIT");
    }
}

/// The `BIN` upgrade pipelines: a client may send the upgrade line and
/// binary frames in one write, and the replies come back in order —
/// text `OK BIN` first, then binary frames.
#[test]
fn bin_upgrade_pipelines_with_binary_frames() {
    let mut ctx = ctx();
    for but in &mut ctx.backends {
        let tuples = [
            Tuple {
                object: 5,
                is_add: true,
            },
            Tuple {
                object: 5,
                is_add: true,
            },
            Tuple {
                object: 7,
                is_add: false,
            },
        ];
        let mut wire = b"BIN\n".to_vec();
        bin_proto::put_batch(&mut wire, &tuples);
        bin_proto::put_freq(&mut wire, 5);
        bin_proto::put_simple(&mut wire, bin_proto::REQ_QUIT);

        let mut raw = RawBin::connect_raw(but.addr.as_str());
        raw.write(&wire);
        for t in tuples {
            but.oracle.apply(t);
        }
        assert_eq!(raw.read_line(), "OK BIN");
        assert_eq!(raw.reply(), Reply::Ok(3));
        assert_eq!(raw.reply(), Reply::Freq(5, but.oracle.frequency(5)));
        assert_eq!(raw.reply(), Reply::Ok(0));
        raw.assert_closed();
    }
}

/// Past `--max-conns` the server sheds instead of queueing: the shed
/// connection gets a typed `ERR overloaded` line and a close, existing
/// connections keep working, and the `shed` counter shows up in STATS.
#[test]
fn overflow_connections_are_shed_with_a_typed_err() {
    let server = Server::start(
        ServerConfig {
            m: M,
            backend: BackendKind::Sharded { shards: 4 },
            workers: 1,
            max_conns: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind shed server");
    let addr = server.local_addr().to_string();

    // Fill the budget; the round trips guarantee both are registered
    // before the overflow connection arrives.
    let mut c1 = Client::connect(addr.as_str()).expect("conn 1");
    let mut c2 = Client::connect(addr.as_str()).expect("conn 2");
    c1.stats().expect("stats 1");
    c2.stats().expect("stats 2");

    let mut over = RawBin::connect_raw(addr.as_str());
    assert_eq!(over.read_line(), "ERR overloaded");
    over.assert_closed();

    // Existing connections are unaffected and STATS records the shed.
    let stats = c1.stats().expect("stats after shed");
    assert_eq!(Client::stats_field(&stats, "shed"), Some(1), "{stats}");
    assert_eq!(Client::stats_field(&stats, "conns"), Some(2), "{stats}");
    c1.quit().expect("QUIT 1");
    c2.quit().expect("QUIT 2");
    assert_eq!(server.shutdown(), 0);
}

/// Connects `n` raw clients and waits until the server has placed
/// every one: registered (counted in `conns`) or shed.
fn connect_all(server: &Server, n: usize) -> Vec<RawBin> {
    let addr = server.local_addr().to_string();
    let clients: Vec<RawBin> = (0..n).map(|_| RawBin::connect_raw(&addr)).collect();
    let metrics = server.metrics();
    for _ in 0..500 {
        if metrics.conns.get() + metrics.shed.get() == n as u64 {
            return clients;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the server never placed all {n} connections");
}

/// Sends `STATS` on every client and returns each one's reply line.
fn stats_round_trips(clients: &mut [RawBin]) -> Vec<String> {
    clients
        .iter_mut()
        .map(|c| {
            c.write(b"STATS\n");
            c.read_line()
        })
        .collect()
}

/// `--max-conns` is one budget for the whole server, however the
/// workers split the accepted connections: 6 connections fit under 8
/// on 4 workers.
#[test]
fn max_conns_is_one_budget_across_workers() {
    let server = Server::start(
        ServerConfig {
            m: M,
            workers: 4,
            max_conns: 8,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind server");
    let mut clients = connect_all(&server, 6);
    for reply in stats_round_trips(&mut clients) {
        let stats = reply
            .strip_prefix("STATS ")
            .unwrap_or_else(|| panic!("expected STATS, got {reply}"));
        assert_eq!(Client::stats_field(stats, "shed"), Some(0), "{stats}");
        assert_eq!(Client::stats_field(stats, "conns"), Some(6), "{stats}");
    }
    assert_eq!(server.shutdown(), 0);
}

/// Past the budget exactly the overflow is shed, whichever workers the
/// connections land on: 4 connections against `--max-conns 2` on 4
/// workers.
#[test]
fn connections_past_the_budget_are_shed_exactly() {
    let server = Server::start(
        ServerConfig {
            m: M,
            workers: 4,
            max_conns: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind server");
    let mut clients = connect_all(&server, 4);
    let replies = stats_round_trips(&mut clients);
    let shed = replies.iter().filter(|r| *r == "ERR overloaded").count();
    let served: Vec<&str> = replies
        .iter()
        .filter_map(|r| r.strip_prefix("STATS "))
        .collect();
    assert_eq!((shed, served.len()), (2, 2), "{replies:?}");
    for stats in served {
        assert_eq!(Client::stats_field(stats, "conns"), Some(2), "{stats}");
        assert_eq!(Client::stats_field(stats, "shed"), Some(2), "{stats}");
    }
    assert_eq!(server.shutdown(), 0);
}

/// Acceptance floor from the event-loop rework: a 256-connection
/// binary-protocol loadgen run completes against the default worker
/// count, applying every tuple exactly once.
#[test]
fn loadgen_completes_with_256_connections() {
    const THREADS: usize = 256;
    const EVENTS_PER_THREAD: usize = 64;
    let server = Server::start(
        ServerConfig {
            m: 256,
            backend: BackendKind::Sharded { shards: 8 },
            flush_every: 32,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind 256-conn server");
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: THREADS,
        events_per_thread: EVENTS_PER_THREAD,
        batch: 16,
        m: 256,
        seed: 77,
        proto: WireProto::Bin,
    };
    let report = loadgen::run(&cfg).expect("256-connection loadgen");
    let total = (THREADS * EVENTS_PER_THREAD) as u64;
    assert_eq!(report.tuples_sent, total);
    assert_eq!(
        Client::stats_field(&report.final_stats, "applied"),
        Some(total),
        "{}",
        report.final_stats
    );
    assert!(report.latency.samples > 0, "latency histogram recorded");
    assert_eq!(server.shutdown(), total);
}

/// The binary `SNAPSHOT` verb ships the server's checkpoint inline: the
/// returned bytes decode to exactly the oracle's state, and text-mode
/// connections are refused client-side (the verb has no text form).
#[test]
fn snapshot_fetch_returns_the_full_state_inline() {
    let server = Server::start(
        ServerConfig {
            m: M,
            backend: BackendKind::Sharded { shards: 3 },
            workers: 2,
            flush_every: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind snapshot server");
    let mut client = Client::connect_with(server.local_addr(), WireProto::Bin).expect("connect");
    let mut oracle = SProfile::new(M);
    let tuples: Vec<Tuple> = (0..200u32)
        .map(|i| Tuple {
            object: (i * 7) % M,
            is_add: i % 3 != 0,
        })
        .collect();
    client.batch(&tuples).expect("batch");
    oracle.apply_batch(&tuples);

    let bytes = client.snapshot_fetch().expect("inline snapshot");
    let got = SProfile::from_snapshot_bytes(&bytes).expect("decode snapshot");
    for x in 0..M {
        assert_eq!(got.frequency(x), oracle.frequency(x), "object {x}");
    }
    // The connection stays usable after the bulk reply.
    assert_eq!(client.freq(0).expect("freq"), oracle.frequency(0));
    client.quit().expect("quit");

    let mut text = Client::connect(server.local_addr()).expect("text connect");
    assert!(
        text.snapshot_fetch().is_err(),
        "inline snapshot must be refused on a text connection"
    );
    text.quit().expect("quit");
    server.shutdown();
}

/// `MAP` has a binary opcode, and a server outside a cluster refuses it
/// over binary as it does over text; the refusal consumes the frame and
/// leaves the connection usable.
#[test]
fn a_standalone_server_refuses_map_in_both_protocols() {
    let server = start(BackendKind::Sharded { shards: 2 });
    for proto in [WireProto::Text, WireProto::Bin] {
        let mut client = Client::connect_with(server.local_addr(), proto).expect("connect");
        match client.map() {
            Err(ClientError::Server(msg)) => assert_eq!(msg, "not a cluster node", "{proto:?}"),
            other => panic!("{proto:?}: MAP on a standalone server answered {other:?}"),
        }
        assert_eq!(
            client.freq(0).expect("FREQ after the refusal"),
            0,
            "{proto:?}"
        );
        client.quit().expect("quit");
    }
    server.shutdown();
}

/// The mixed window the pipelining tests send: BATCH, FREQ, MODE, TOPK,
/// CAL, MEDIAN, STATS, twice over, with different tuples each time.
fn mixed_window() -> Vec<Request> {
    (0..2u32)
        .flat_map(|round| {
            let batch = (0..40u32)
                .map(|i| Tuple {
                    object: (i * 5 + round * 3) % M,
                    is_add: i % 4 != round,
                })
                .collect();
            [
                Request::batch(batch),
                Request::Freq(round * 7),
                Request::Mode,
                Request::TopK(4 + round),
                Request::Cal(i64::from(round) + 1),
                Request::Median,
                Request::Stats,
            ]
        })
        .collect()
}

/// The reply the server owes `req`, applying its writes to the oracle.
/// A `STATS` payload is cut down to `applied`, the field the oracle
/// knows.
fn oracle_reply(oracle: &mut SProfile, applied: &mut u64, req: &Request) -> Response {
    match req {
        Request::BatchFrame { tuples, .. } => {
            oracle.apply_batch(tuples);
            *applied += tuples.len() as u64;
            Response::Count(tuples.len() as u64)
        }
        Request::Freq(x) => Response::Freq(*x, oracle.frequency(*x)),
        Request::Mode => Response::Mode(oracle_mode(oracle)),
        Request::TopK(k) => Response::TopK(oracle.top_k(*k)),
        Request::Cal(f) => Response::Cal(oracle.count_at_least(*f)),
        Request::Median => Response::Median(oracle.median()),
        Request::Stats => Response::Stats(format!("applied={applied}")),
        other => panic!("no oracle reply for {other:?}"),
    }
}

fn applied_only(reply: Response) -> Response {
    match reply {
        Response::Stats(payload) => {
            let applied = Client::stats_field(&payload, "applied").expect("applied field");
            Response::Stats(format!("applied={applied}"))
        }
        other => other,
    }
}

/// Any request pipelines over `proto`: the whole mixed window goes out
/// through `send` and one `flush_out` before the first `recv`, and each
/// reply matches the oracle and what the same requests get one round
/// trip at a time on a twin server.
fn mixed_window_pipelines(proto: WireProto) {
    let servers = [
        start(BackendKind::Sharded { shards: 5 }),
        start(BackendKind::Sharded { shards: 5 }),
    ];
    let window = mixed_window();

    let mut piped = Client::connect_with(servers[0].local_addr(), proto).expect("connect");
    for req in &window {
        piped.send(req).expect("send");
    }
    piped.flush_out().expect("flush");
    let pipelined: Vec<Response> = window
        .iter()
        .map(|req| applied_only(piped.recv(req).expect("recv")))
        .collect();

    let mut single = Client::connect_with(servers[1].local_addr(), proto).expect("connect");
    let one_at_a_time: Vec<Response> = window
        .iter()
        .map(|req| {
            single.send(req).expect("send");
            single.flush_out().expect("flush");
            applied_only(single.recv(req).expect("recv"))
        })
        .collect();

    let mut oracle = SProfile::new(M);
    let mut applied = 0;
    let expected: Vec<Response> = window
        .iter()
        .map(|req| oracle_reply(&mut oracle, &mut applied, req))
        .collect();
    assert_eq!(pipelined, expected, "{proto:?} pipelined vs oracle");
    assert_eq!(one_at_a_time, pipelined, "{proto:?} one at a time");
    piped.quit().expect("quit");
    single.quit().expect("quit");
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn mixed_window_pipelines_over_text() {
    mixed_window_pipelines(WireProto::Text);
}

#[test]
fn mixed_window_pipelines_over_bin() {
    mixed_window_pipelines(WireProto::Bin);
}
