//! Health-check-driven failover: the replica-side promoter thread.
//!
//! Every replica started with [`FailoverConfig`] runs one promoter. It
//! samples the applier's `beats` counter (every frame the primary
//! ships, idle `EPOCH` heartbeats included) on the configured cadence;
//! a primary that stays silent for `grace` consecutive samples is
//! suspected dead. Before acting, the promoter double-checks by
//! connecting to the primary directly — a stalled stream with a live
//! primary is a false alarm, not a failover.
//!
//! When the primary really is down, the promoter holds an **election**
//! with its peer replicas over the ordinary `STATS` query (no new
//! protocol): it needs a majority of the replica group (`peers ∪
//! {self}`) reachable, and the winner is the node with the greatest
//! `(repl_epoch, repl_applied_lsn)` — the most caught-up survivor —
//! with the *lowest address* breaking exact ties, so every reachable
//! node computes the same winner. Applied LSNs are frozen once the
//! primary is dead, which is what makes the comparison stable.
//!
//! The winner durably bumps its epoch past everything it has seen and
//! self-promotes (exactly the manual `PROMOTE` path). The losers keep
//! watching; on a later round they find a peer already promoted at a
//! newer generation and **re-point** their appliers at it. The old
//! primary, if it ever comes back, is fenced out by the epoch checks in
//! `sprofile-replicate`.
//!
//! [`FailoverConfig`]: crate::server::FailoverConfig

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sprofile_concurrent::ShardedProfile;
use sprofile_obs::{log, Level};
use sprofile_replicate::{Applier, ApplierOptions};

use crate::repl::{BackendSink, ReplicaState};
use crate::server::Shared;

/// Everything the promoter thread needs, captured at server start.
pub(crate) struct FailoverCtx {
    pub shared: Arc<Shared>,
    /// For building a fresh [`BackendSink`] when re-pointing.
    pub backend: Arc<ShardedProfile>,
    pub m: u32,
    /// The primary being monitored.
    pub primary: String,
    /// This node's own client address, for the election tiebreak.
    pub self_addr: String,
    /// The other replicas of the same primary.
    pub peers: Vec<String>,
    pub heartbeat: Duration,
    pub grace: u32,
}

impl FailoverCtx {
    fn replica(&self) -> &ReplicaState {
        self.shared
            .repl
            .replica
            .as_ref()
            .expect("failover requires replica mode")
    }

    fn epoch(&self) -> u64 {
        let followed = self.replica().stats.epoch();
        self.shared
            .durability
            .as_ref()
            .map_or(followed, |d| d.epoch().max(followed))
    }

    fn promoted(&self) -> bool {
        self.replica().promoted.load(Ordering::Acquire)
    }
}

/// One peer's election-relevant state, as read from its `STATS`.
struct PeerState {
    addr: String,
    role: String,
    epoch: u64,
    applied: u64,
}

/// Queries `addr`'s `STATS` with `timeout` bounding connect, write, and
/// read. `None` means unreachable (the election treats it as down).
fn query_stats(addr: &str, timeout: Duration) -> Option<String> {
    let sock = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sock, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"STATS\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    line.strip_prefix("STATS ")
        .map(|s| s.trim_end().to_string())
}

fn stat_u64(stats: &str, key: &str) -> Option<u64> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

fn stat_str<'s>(stats: &'s str, key: &str) -> Option<&'s str> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
}

fn peer_state(addr: &str, timeout: Duration) -> Option<PeerState> {
    let stats = query_stats(addr, timeout)?;
    Some(PeerState {
        addr: addr.to_string(),
        role: stat_str(&stats, "repl_role")?.to_string(),
        epoch: stat_u64(&stats, "repl_epoch")?,
        applied: stat_u64(&stats, "repl_applied_lsn")?,
    })
}

/// The promoter thread body. Exits when the server stops or this node
/// is promoted (manually or by winning an election).
pub(crate) fn promoter_loop(ctx: FailoverCtx) {
    let mut misses: u32 = 0;
    let mut last_beats = ctx.replica().stats.beats();
    loop {
        if ctx.shared.sleep_or_stop(ctx.heartbeat) || ctx.promoted() {
            return;
        }
        let beats = ctx.replica().stats.beats();
        if beats != last_beats {
            last_beats = beats;
            misses = 0;
            continue;
        }
        misses += 1;
        if misses < ctx.grace {
            continue;
        }
        misses = 0;
        // Suspicion confirmed only if the primary itself is unreachable:
        // a wedged stream against a live primary is the applier's
        // problem (it reconnects), not a failover.
        if query_stats(&ctx.primary, ctx.heartbeat).is_some() {
            continue;
        }
        if run_election(&ctx) {
            return;
        }
    }
}

/// One election round. Returns `true` when this node promoted itself
/// (the promoter is done); losers return `false` and keep monitoring —
/// they re-point to the winner on a later round, once it shows up
/// promoted at a newer epoch.
fn run_election(ctx: &FailoverCtx) -> bool {
    let my_epoch = ctx.epoch();
    let my_applied = ctx.replica().stats.applied_lsn();
    let mut reachable: Vec<PeerState> = Vec::new();
    for peer in &ctx.peers {
        if let Some(state) = peer_state(peer, ctx.heartbeat) {
            // A peer that already runs a writable head at our
            // generation or newer *is* the new primary: follow it.
            if (state.role == "promoted" || state.role == "primary") && state.epoch >= my_epoch {
                repoint(ctx, &state.addr);
                return false;
            }
            reachable.push(state);
        }
    }
    // Quorum: a majority of the replica group must be reachable
    // (counting self), or a partitioned minority could elect a second
    // head. With no quorum, stay a replica and retry next round.
    let group = ctx.peers.len() + 1;
    if reachable.len() < group / 2 {
        // reachable + self is not a strict majority of the group.
        return false;
    }
    // Deterministic winner: greatest (epoch, applied), lowest address
    // on exact ties. Applied LSNs are frozen while the primary is down,
    // so every reachable node ranks the candidates identically.
    let wins = reachable.iter().all(|p| {
        (my_epoch, my_applied) > (p.epoch, p.applied)
            || ((my_epoch, my_applied) == (p.epoch, p.applied) && ctx.self_addr < p.addr)
    });
    if !wins {
        return false;
    }
    let floor = reachable.iter().map(|p| p.epoch).fold(my_epoch, u64::max);
    let replica = ctx.replica();
    replica.stop_applier();
    let epoch = match &ctx.shared.durability {
        Some(d) => match d.bump_epoch(floor) {
            Ok(e) => e,
            Err(e) => {
                // Cannot open a durable generation: stay a replica (the
                // peers will elect around this node once it stops
                // responding as a candidate).
                eprintln!("sprofile failover: promotion aborted: {e}");
                return false;
            }
        },
        None => floor + 1,
    };
    replica.promoted.store(true, Ordering::Release);
    ctx.shared.readonly.store(false, Ordering::Release);
    log!(
        ctx.shared.obs,
        Level::Warn,
        "failover",
        "promoted self",
        addr = ctx.self_addr,
        epoch = epoch,
        applied_lsn = my_applied,
    );
    eprintln!(
        "sprofile failover: promoted self ({}) at epoch {epoch}, applied lsn {my_applied}",
        ctx.self_addr
    );
    true
}

/// Re-points the applier at `head` — the election's winner — with a
/// fresh sink (same stats block, so `STATS` counters stay continuous).
/// The stream itself carries the winner's bumped epoch, which the sink
/// adopts durably on the first frame.
fn repoint(ctx: &FailoverCtx, head: &str) {
    let replica = ctx.replica();
    replica.stop_applier();
    let sink = BackendSink::new(
        Arc::clone(&ctx.backend),
        ctx.shared.durability.clone(),
        ctx.m,
    )
    .with_obs(Arc::clone(&ctx.shared.obs));
    let applier = Applier::spawn(
        ApplierOptions::new(head.to_string()),
        Box::new(sink),
        Arc::clone(&replica.stats),
    );
    *replica.applier.lock().expect("applier lock poisoned") = Some(applier);
    eprintln!("sprofile failover: re-pointed applier at new head {head}");
}
