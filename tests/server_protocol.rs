//! Protocol property suite: random well-formed sessions against a live
//! TCP server must agree with an offline [`SProfile`] oracle on every
//! query; malformed or truncated frames must yield an `ERR` reply and
//! never panic the server or desync the connection.
//!
//! Two shapes (5 shards and 1) run behind **one long-lived server each**
//! (sessions accumulate state, and so do the matching oracles) — cheaper
//! than a server per case and a stronger test: every case starts from
//! the state the previous cases left behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use sprofile::SProfile;
use sprofile_server::{BackendKind, Client, ClientError, Server, ServerConfig};

/// Small universe so frequencies collide and tie-breaking matters.
const M: u32 = 24;

struct BackendUnderTest {
    addr: String,
    oracle: SProfile,
    /// Keeps the accept pool alive for the whole test process.
    _server: Server,
}

struct Ctx {
    backends: Vec<BackendUnderTest>,
}

fn ctx() -> MutexGuard<'static, Ctx> {
    static CTX: OnceLock<Mutex<Ctx>> = OnceLock::new();
    CTX.get_or_init(|| {
        let backends = [5, 1]
            .into_iter()
            .map(|shards| {
                let server = Server::start(
                    ServerConfig {
                        m: M,
                        backend: BackendKind::Sharded { shards },
                        workers: 2,
                        // Tiny threshold so sessions cross flush
                        // boundaries constantly.
                        flush_every: 4,
                        ..ServerConfig::default()
                    },
                    "127.0.0.1:0",
                )
                .expect("bind test server");
                BackendUnderTest {
                    addr: server.local_addr().to_string(),
                    oracle: SProfile::new(M),
                    _server: server,
                }
            })
            .collect();
        Mutex::new(Ctx { backends })
    })
    .lock()
    .expect("ctx lock poisoned")
}

/// One step of a well-formed session.
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

fn apply_session(
    client: &mut Client,
    oracle: &mut SProfile,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for op in ops {
        match op {
            Op::Add(x) => {
                client.add(*x).expect("ADD");
                oracle.add(*x);
            }
            Op::Remove(x) => {
                client.remove(*x).expect("RM");
                oracle.remove(*x);
            }
            Op::Batch(tuples) => {
                let batch: Vec<sprofile::Tuple> = tuples
                    .iter()
                    .map(|&(object, is_add)| sprofile::Tuple { object, is_add })
                    .collect();
                let n = client.batch(&batch).expect("BATCH");
                prop_assert_eq!(n as usize, batch.len());
                for t in &batch {
                    oracle.apply(*t);
                }
            }
            Op::Mode => {
                prop_assert_eq!(client.mode().expect("MODE"), oracle_mode(oracle));
            }
            Op::Least => {
                prop_assert_eq!(client.least().expect("LEAST"), oracle_least(oracle));
            }
            Op::Freq(x) => {
                prop_assert_eq!(client.freq(*x).expect("FREQ"), oracle.frequency(*x));
            }
            Op::Median => {
                prop_assert_eq!(client.median().expect("MEDIAN"), oracle.median());
            }
            Op::TopK(k) => {
                prop_assert_eq!(client.top_k(*k).expect("TOPK"), oracle.top_k(*k));
            }
            Op::Cal(f) => {
                prop_assert_eq!(
                    client.count_at_least(*f).expect("CAL"),
                    oracle.count_at_least(*f)
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random well-formed sessions agree with the oracle on every query,
    /// for both shapes, with state accumulating across cases.
    #[test]
    fn random_sessions_agree_with_the_oracle(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut ctx = ctx();
        for but in &mut ctx.backends {
            let mut client = Client::connect(but.addr.as_str()).expect("connect");
            apply_session(&mut client, &mut but.oracle, &ops)?;
            client.quit().expect("QUIT");
        }
    }

    /// Garbage interleaved with valid traffic always gets `ERR` and
    /// never desyncs: the queries that follow still match the oracle.
    #[test]
    fn malformed_lines_err_without_desync(
        ops in prop::collection::vec(op_strategy(), 1..12),
        garbage_at in 0usize..12,
    ) {
        const GARBAGE: [&str; 8] = [
            "NOPE",
            "ADD",
            "ADD banana",
            "ADD 99999",          // out of range for M = 24
            "RM -1",
            "BATCH x",
            "FREQ",
            "TOPK 1 2 3 extra",   // parse error: "1 2 3 extra" is not a u32
        ];
        let mut ctx = ctx();
        for but in &mut ctx.backends {
            let mut client = Client::connect(but.addr.as_str()).expect("connect");
            let line = GARBAGE[garbage_at % GARBAGE.len()];
            client.send_line(line).expect("send garbage");
            let reply = client.recv_line().expect("reply to garbage");
            prop_assert!(reply.starts_with("ERR "), "{} -> {}", line, reply);
            apply_session(&mut client, &mut but.oracle, &ops)?;
            client.quit().expect("QUIT");
        }
    }
}

/// A `BATCH` body with a bad tuple is consumed whole, answered with one
/// `ERR`, applies nothing — and the connection stays in sync.
#[test]
fn bad_batch_bodies_do_not_desync_or_apply() {
    let mut ctx = ctx();
    for but in &mut ctx.backends {
        let mut client = Client::connect(but.addr.as_str()).expect("connect");
        let before: Vec<i64> = (0..M).map(|x| but.oracle.frequency(x)).collect();
        client.send_line("BATCH 4").unwrap();
        client.send_line("a 1").unwrap();
        client.send_line("a 99999").unwrap(); // out of range
        client.send_line("not a tuple").unwrap();
        client.send_line("r 2").unwrap();
        let reply = client.recv_line().unwrap();
        assert!(reply.starts_with("ERR tuple 2"), "{reply}");
        // Nothing applied, connection still in lockstep with the oracle.
        for x in 0..M {
            assert_eq!(client.freq(x).unwrap(), before[x as usize], "object {x}");
        }
        client.quit().unwrap();
    }
}

/// Truncated frames (connection dropped mid-`BATCH`) are dropped whole;
/// the server neither panics nor applies a partial batch.
#[test]
fn truncated_batch_frames_are_dropped() {
    let mut ctx = ctx();
    for but in &mut ctx.backends {
        {
            let mut client = Client::connect(but.addr.as_str()).expect("connect");
            client.send_line("BATCH 1000").unwrap();
            client.send_line("a 3").unwrap();
            client.send_line("a 3").unwrap();
            // Drop mid-body.
        }
        let mut client = Client::connect(but.addr.as_str()).expect("reconnect");
        // The incomplete frame must never land, no matter how long we
        // wait; `applied` visible via a query barrier on a new conn.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(
            client.freq(3).unwrap(),
            but.oracle.frequency(3),
            "truncated batch must not apply"
        );
        client.quit().unwrap();
    }
}

/// A one-shot fake server: accepts one connection, reads one request
/// line, answers with `reply`, and closes.
fn answer_once(reply: &'static [u8]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake server address");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("request line");
        (&stream).write_all(reply).expect("reply");
    });
    addr
}

/// A hostile `TOPK` header is bounded like its binary counterpart: a
/// typed protocol error, not a capacity-overflow panic in the caller.
#[test]
fn hostile_text_topk_count_is_a_protocol_error() {
    let addr = answer_once(b"TOPK 18446744073709551615\n");
    let mut client = Client::connect(addr).expect("connect");
    match client.top_k(3) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("implausible"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
