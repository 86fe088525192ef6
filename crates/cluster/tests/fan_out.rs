//! The router's scatter round, against two fake nodes that answer
//! `MODE` only once both have received it. A router that sends each
//! query to every node before it reads any reply completes the query;
//! one that asks its nodes one after another waits on a node that waits
//! on a peer it never asked, and gets that node's `ERR` after
//! [`PEER_WAIT`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sprofile_cluster::ClusterClient;
use sprofile_persist::PartitionMap;
use sprofile_server::bin_proto::{REQ_MODE, REQ_QUIT, TAG_ERR, TAG_OK, TAG_PAIR};

/// How long a fake node waits for its peer's `MODE` before it answers
/// `ERR`.
const PEER_WAIT: Duration = Duration::from_secs(2);

/// The `MODE` requests the fake nodes have received so far, and the
/// condvar each waits on for the other's.
type Arrivals = Arc<(Mutex<usize>, Condvar)>;

/// A fake node: serves `conns` connections on `listener`, one after
/// another, each in the text protocol until `BIN` and in the binary
/// protocol after it. It answers text `MAP`, `STATS` and `QUIT`, binary
/// `QUIT`, and binary `MODE` with `answer` once both nodes have
/// received a `MODE`.
fn fake_node(
    listener: TcpListener,
    conns: usize,
    map: String,
    answer: (u32, i64),
    arrivals: Arrivals,
) -> JoinHandle<()> {
    thread::spawn(move || {
        for stream in listener.incoming().take(conns) {
            serve(stream.expect("accept"), &map, answer, &arrivals);
        }
    })
}

fn serve(stream: TcpStream, map: &str, answer: (u32, i64), arrivals: &Arrivals) {
    let mut out = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read line") == 0 {
            return;
        }
        let reply = match line.trim() {
            "MAP" => format!("MAP {map}"),
            "STATS" => "STATS m=64".to_string(),
            "QUIT" => {
                writeln!(out, "BYE").expect("write BYE");
                return;
            }
            "BIN" => {
                writeln!(out, "OK BIN").expect("write OK BIN");
                break;
            }
            other => panic!("fake node got text {other:?}"),
        };
        writeln!(out, "{reply}").expect("write reply");
    }
    let mut opcode = [0u8; 1];
    while reader.read_exact(&mut opcode).is_ok() {
        let mut frame = Vec::new();
        match opcode[0] {
            REQ_MODE if peer_asked(arrivals) => {
                frame.extend_from_slice(&[TAG_PAIR, 1]);
                frame.extend_from_slice(&answer.0.to_le_bytes());
                frame.extend_from_slice(&answer.1.to_le_bytes());
            }
            REQ_MODE => {
                let msg = b"the peer node never got MODE";
                frame.push(TAG_ERR);
                frame.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                frame.extend_from_slice(msg);
            }
            REQ_QUIT => {
                frame.push(TAG_OK);
                frame.extend_from_slice(&0u32.to_le_bytes());
                out.write_all(&frame).expect("write QUIT reply");
                return;
            }
            other => panic!("fake node got opcode 0x{other:02x}"),
        }
        out.write_all(&frame).expect("write MODE reply");
    }
}

/// Counts this node's `MODE` and waits up to [`PEER_WAIT`] for the
/// other node's: whether both arrived.
fn peer_asked(arrivals: &Arrivals) -> bool {
    let (count, arrived) = &**arrivals;
    let mut count = count.lock().expect("arrivals lock");
    *count += 1;
    arrived.notify_all();
    let (both, _) = arrived
        .wait_timeout_while(count, PEER_WAIT, |count| *count < 2)
        .expect("arrivals lock");
    *both >= 2
}

#[test]
fn a_query_reaches_every_node_before_the_router_reads_a_reply() {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind fake node"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let map = PartitionMap::round_robin(4, addrs.clone()).to_wire();
    let arrivals: Arrivals = Arc::default();
    // Node 0 is the seed: it serves the router's handshake connection,
    // then its data connection; node 1 serves the data connection only.
    let answers = [(5u32, 3i64), (2, 3)];
    let nodes: Vec<JoinHandle<()>> = listeners
        .into_iter()
        .zip(answers)
        .zip([2, 1])
        .map(|((listener, answer), conns)| {
            fake_node(listener, conns, map.clone(), answer, Arc::clone(&arrivals))
        })
        .collect();

    let mut router = ClusterClient::connect(&addrs[0]).expect("router");
    assert_eq!(router.m(), 64);
    // Both nodes answer frequency 3; the tie goes to the smaller id.
    assert_eq!(router.mode().expect("mode"), Some((2, 3)));
    router.close().expect("close router");
    for node in nodes {
        node.join().expect("fake node");
    }
}
