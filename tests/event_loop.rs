//! The event loop through a live server: each server-side connection
//! holds one fd, a client that stops reading is paused without stalling
//! its worker, a dropped client is reaped, and a stop wakes parked
//! workers.
//!
//! The tests run one at a time (see [`serial`]), so the fd count sees
//! no other test's sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sprofile::Tuple;
use sprofile_server::{Client, Server, ServerConfig};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(m: u32, workers: usize) -> Server {
    Server::start(
        ServerConfig {
            m,
            workers,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn each_server_side_connection_holds_one_fd() {
    let _serial = serial();
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let server = start(64, 2);
    let before = open_fds();
    let clients: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    wait_for("64 accepted connections", || {
        server.metrics().conns.get() == 64
    });
    let added = open_fds() - before;
    // The client end plus the server end, nothing more.
    assert!(added <= 2 * 64, "{added} fds for 64 connections");
    drop(clients);
    server.shutdown();
}

/// Sends `TOPK (m - i)` for `i` in `0..n` and never reads: each reply is
/// about half a MiB, so the backlog outgrows the socket buffers and the
/// server's 1 MiB pause threshold long before the last one.
#[test]
fn a_client_that_stops_reading_is_paused_and_later_gets_every_reply_in_order() {
    let _serial = serial();
    const M: u32 = 1 << 16;
    const N: u32 = 64;
    let server = start(M, 1);
    let mut other = Client::connect(server.local_addr()).unwrap();
    other
        .batch(&[Tuple::add(5), Tuple::add(5), Tuple::add(9)])
        .unwrap();
    let mut reader = TcpStream::connect(server.local_addr()).unwrap();
    let requests: String = (0..N).map(|i| format!("TOPK {}\n", M - i)).collect();
    reader.write_all(requests.as_bytes()).unwrap();

    // The server stops serving the silent client once its backlog passes
    // the threshold: the query count settles below N.
    let queries = |c: &mut Client| Client::stats_field(&c.stats().unwrap(), "queries").unwrap();
    let mut served = queries(&mut other);
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(200));
        let now = queries(&mut other);
        if now == served && now > 0 {
            break;
        }
        served = now;
    }
    assert!(served < u64::from(N), "{served} of {N} served unpaused");
    // The same worker still answers the other client.
    assert_eq!(other.freq(5).unwrap(), 2);

    // Draining the socket resumes the paused client: every reply
    // arrives, in request order.
    reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = BufReader::new(reader);
    let mut line = Vec::new();
    for i in 0..N {
        line.clear();
        replies.read_until(b'\n', &mut line).unwrap();
        let want = format!("TOPK {}\n", M - i);
        assert_eq!(String::from_utf8_lossy(&line), want, "reply {i}");
        line.clear();
        replies.read_until(b'\n', &mut line).unwrap();
        assert_eq!(line, b"5 2\n", "reply {i} ranks the mode first");
        let rows = (M - i - 1) as usize;
        let mut skipped = 0;
        while skipped < rows {
            let buf = replies.fill_buf().unwrap();
            assert!(!buf.is_empty(), "reply {i} cut short");
            let mut used = 0;
            for &b in buf {
                used += 1;
                if b == b'\n' {
                    skipped += 1;
                    if skipped == rows {
                        break;
                    }
                }
            }
            replies.consume(used);
        }
    }
    assert_eq!(queries(&mut other), u64::from(N) + 1);
    other.quit().unwrap();
    let mut reader = replies.into_inner();
    reader.write_all(b"QUIT\n").unwrap();
    let mut bye = String::new();
    reader.read_to_string(&mut bye).unwrap();
    assert_eq!(bye, "BYE\n");
    server.shutdown();
}

#[test]
fn a_dropped_client_is_reaped() {
    let _serial = serial();
    let server = start(64, 2);
    let clients: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    wait_for("4 accepted connections", || {
        server.metrics().conns.get() == 4
    });
    // No QUIT: the server sees EOF on each socket and closes its end.
    drop(clients);
    wait_for("every connection reaped", || {
        server.metrics().conns.get() == 0
    });
    server.shutdown();
}

#[test]
fn shutdown_with_idle_connections_returns_promptly() {
    let _serial = serial();
    let server = start(64, 2);
    let clients: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    wait_for("8 accepted connections", || {
        server.metrics().conns.get() == 8
    });
    // Let the workers climb their idle backoff to its longest park.
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        t.elapsed()
    );
    drop(clients);
}
