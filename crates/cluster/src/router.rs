//! The cluster-aware client: write routing, moved-retry, and exact
//! scatter-gather merges.
//!
//! # Rounds
//!
//! Every fan-out is one pipelined round over the binary data
//! connections: the router encodes the request into every node's output
//! buffer, flushes every node, then reads the replies in node order. A
//! round costs one network round trip, not one per node, and the nodes
//! work in parallel. Replies pair with requests by order on each
//! connection, so a round reads every reply of every node it flushed,
//! even after another node failed, and returns the first error in node
//! order; a node whose flush failed is never read from. A routed batch
//! is one round of per-node `BATCH` frames; a `MEDIAN` is one round of
//! `MEDIAN` plus one round of `CAL` per bisection step.
//!
//! # Exactness
//!
//! Every node answers queries over its owned slices only (folding the
//! answers of the shards inside them), and this router merges those
//! partial answers with the same tie-breaks the single-node profile
//! uses:
//!
//! - `MODE`: maximum frequency, ties to the smallest object id.
//! - `LEAST`: minimum frequency, ties to the smallest object id.
//! - `TOPK k`: each node over-fetches its top `k` *with ties at the
//!   cut*; the union provably contains the global top `k` under the
//!   total order (frequency descending, id ascending), so sorting the
//!   union by that order and truncating reproduces the single-profile
//!   list exactly.
//! - `CAL f`: partitions are disjoint, so the global count is the sum.
//! - `MEDIAN`: each node's lower median over its owned objects brackets
//!   the global lower median between the smallest and largest of them.
//!   With `r = m − (m−1)/2`, the global median is the largest value `v`
//!   with `CAL(v) ≥ r`, bisected on summed `CAL` inside that bracket
//!   only ([`sprofile::lower_median_of_parts`]): one `MEDIAN` per node,
//!   and no `CAL` round at all when the node medians agree.
//!
//! # Moved retries
//!
//! A write whose frame touches a slice the receiving node no longer
//! owns is rejected wholesale with `ERR moved <ver>`. The router then
//! refreshes its map (one `MAP` round, adopting only strictly newer
//! versions), waits [`MOVED_BACKOFF`], and resends *only the rejected
//! frames* — acked frames are never replayed. `MIGRATE` is a barrier
//! for global queries: during the short hand-off window neither node
//! claims the migrating slice, so queries issued mid-migration may be
//! routed with a stale map; the retry loop covers `FREQ`, and tests
//! validate global queries after `MIGRATE` returns.

use std::io;
use std::thread;
use std::time::{Duration, Instant};

use sprofile::{lower_median_of_parts, Tuple};
use sprofile_obs::hist::LogHistogram;
use sprofile_persist::PartitionMap;
use sprofile_server::protocol::{Request, Response, MAX_BATCH};
use sprofile_server::{Client, ClientError, ClientResult, WireProto};

/// How many times a moved-rejected operation is retried against a
/// refreshed map before giving up.
pub const MAX_MOVED_RETRIES: usize = 100;

/// Pause between moved retries, giving an in-flight `MIGRATE` time to
/// finish its hand-off.
pub const MOVED_BACKOFF: Duration = Duration::from_millis(5);

/// Picks the better of two per-node `MODE` answers: higher frequency
/// wins, ties to the smaller id.
pub fn merge_mode(a: (u32, i64), b: (u32, i64)) -> (u32, i64) {
    if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) {
        b
    } else {
        a
    }
}

/// Picks the better of two per-node `LEAST` answers: lower frequency
/// wins, ties to the smaller id.
pub fn merge_least(a: (u32, i64), b: (u32, i64)) -> (u32, i64) {
    if b.1 < a.1 || (b.1 == a.1 && b.0 < a.0) {
        b
    } else {
        a
    }
}

/// Merges per-node `TOPK` over-fetches into the global top `k`:
/// frequency descending, id ascending, truncated to `k`.
pub fn merge_top_k(mut union: Vec<(u32, i64)>, k: u32) -> Vec<(u32, i64)> {
    union.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    union.truncate(k as usize);
    union
}

fn parse_moved(msg: &str) -> Option<u64> {
    msg.strip_prefix("moved ")
        .and_then(|v| v.trim().parse().ok())
}

fn exhausted<T>(what: &str) -> ClientResult<T> {
    Err(ClientError::Server(format!(
        "{what}: moved retries exhausted after {MAX_MOVED_RETRIES} attempts"
    )))
}

fn unexpected(req: &Request) -> ClientError {
    ClientError::Protocol(format!("unexpected reply to {}", req.name()))
}

/// Every node's value, or the first error in node order.
fn all<T>(replies: Vec<ClientResult<T>>) -> ClientResult<Vec<T>> {
    replies.into_iter().collect()
}

/// One [`ClusterClient::scatter`] round of `$req` on `$router`,
/// unpacking the one reply shape that answers it: each node's value or
/// error, in node order.
macro_rules! scatter {
    ($router:expr, $req:expr, $shape:pat => $value:expr) => {
        $router.scatter($req, |reply| match reply {
            $shape => Some($value),
            _ => None,
        })
    };
}

/// One logical connection to a whole cluster: a binary-mode data
/// connection per node plus a cached partition map.
pub struct ClusterClient {
    map: PartitionMap,
    m: u32,
    nodes: Vec<Client>,
    /// Trace id every data connection is tagged with (0: untraced).
    /// Kept so reconnects after failover/migration re-tag the fresh
    /// connection — the trace must survive the very events it exists
    /// to explain.
    trace: u64,
    /// Per-node reply wait (microseconds), index-aligned with the map's
    /// node list: which node each round spent its time waiting on.
    node_us: Vec<LogHistogram>,
}

impl ClusterClient {
    /// Connects via any one node: fetches its partition map and the
    /// universe size, then opens a binary-mode connection to every node
    /// the map names.
    pub fn connect(seed: &str) -> ClientResult<ClusterClient> {
        let mut admin = Client::connect(seed)?;
        let map = admin.map()?;
        let stats = admin.stats()?;
        let m = Client::stats_field(&stats, "m")
            .ok_or_else(|| ClientError::Protocol(format!("no m field in STATS '{stats}'")))?
            as u32;
        admin.quit()?;
        let mut nodes = Vec::with_capacity(map.nodes.len());
        for addr in &map.nodes {
            nodes.push(Client::connect_with(addr, WireProto::Bin)?);
        }
        let node_us = (0..nodes.len()).map(|_| LogHistogram::new()).collect();
        Ok(ClusterClient {
            map,
            m,
            nodes,
            trace: 0,
            node_us,
        })
    }

    /// Runs one call against node `i`, recording its latency in that
    /// node's histogram.
    fn timed<T>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let t0 = Instant::now();
        let result = f(&mut self.nodes[i]);
        let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.node_us[i].record(us);
        result
    }

    /// Per-node latency histograms (microseconds), index-aligned with
    /// [`Self::map`]'s node list. A round records one sample per reply
    /// it reads: the time spent reading that reply, after every node
    /// was sent its request. The first node read waits out the round
    /// trip and each later one only what is left of its own, so one
    /// round's samples sum to at most its wall time. A `FREQ` records
    /// its one round trip to the slice owner.
    pub fn node_latency_us(&self) -> &[LogHistogram] {
        &self.node_us
    }

    /// Sends `req` to every node in one pipelined round and returns each
    /// node's reply, unpacked by `unpack`, in node order.
    fn scatter<T>(
        &mut self,
        req: Request,
        unpack: impl Fn(Response) -> Option<T>,
    ) -> Vec<ClientResult<T>> {
        let reqs: Vec<(usize, Request)> = (0..self.nodes.len()).map(|i| (i, req.clone())).collect();
        self.round(&reqs, unpack)
    }

    /// One pipelined round: encodes each `(node, request)` into that
    /// node's output buffer, flushes every node named, then reads the
    /// replies in send order, timing each read in its node's histogram,
    /// and returns them unpacked by `unpack`. Every reply of a flushed
    /// node is read, even after another reply failed, so no connection
    /// keeps a reply that its next request would pair with. A node
    /// whose flush failed is never read from: its first request carries
    /// the flush error, any later one fails as not connected.
    fn round<T>(
        &mut self,
        reqs: &[(usize, Request)],
        unpack: impl Fn(Response) -> Option<T>,
    ) -> Vec<ClientResult<T>> {
        let sent: Vec<ClientResult<()>> = reqs
            .iter()
            .map(|(i, req)| self.nodes[*i].send(req))
            .collect();
        let mut flushed: Vec<Option<ClientResult<()>>> =
            (0..self.nodes.len()).map(|_| None).collect();
        for &(i, _) in reqs {
            if flushed[i].is_none() {
                flushed[i] = Some(self.nodes[i].flush_out());
            }
        }
        let mut replies = Vec::with_capacity(reqs.len());
        for ((i, req), sent) in reqs.iter().zip(sent) {
            let reply = match (sent, &mut flushed[*i]) {
                (Err(e), _) => Err(e),
                (Ok(()), Some(Ok(()))) => self
                    .timed(*i, |n| n.recv(req))
                    .and_then(|r| unpack(r).ok_or_else(|| unexpected(req))),
                // The flush error goes to the node's first request.
                (Ok(()), flush) => match flush.take() {
                    Some(Err(e)) => Err(e),
                    _ => Err(io::Error::from(io::ErrorKind::NotConnected).into()),
                },
            };
            replies.push(reply);
        }
        replies
    }

    /// Tags every data connection with `id` (0 clears): each node logs
    /// the requests this client fans out to it under that trace id, so
    /// one scatter-gather query or routed batch is correlatable across
    /// every node's `LOGTAIL` ring. The id survives reconnects.
    pub fn trace(&mut self, id: u64) -> ClientResult<()> {
        all(scatter!(self, Request::Trace(id), Response::Ok => ()))?;
        self.trace = id;
        Ok(())
    }

    /// The partition map this client is currently routing with.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// The universe size the cluster was started with.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Fetches the map from every node in one `MAP` round over the data
    /// connections and adopts the newest strictly-newer version. A node
    /// whose round failed is skipped: a dead node cannot hold the newest
    /// map. Returns whether the map changed.
    pub fn refresh_map(&mut self) -> ClientResult<bool> {
        let version = self.map.version;
        for wire in scatter!(self, Request::Map, Response::Map(wire) => wire)
            .into_iter()
            .flatten()
        {
            if let Ok(map) = PartitionMap::from_wire(&wire) {
                if map.version > self.map.version {
                    self.map = map;
                }
            }
        }
        Ok(self.map.version != version)
    }

    /// Replaces the data connection for `node` — used after a failover
    /// re-points a map slot at a promoted replica's address.
    fn reconnect(&mut self, node: usize) -> ClientResult<()> {
        self.nodes[node] = Client::connect_with(&self.map.nodes[node], WireProto::Bin)?;
        if self.trace != 0 {
            self.nodes[node].trace(self.trace)?;
        }
        Ok(())
    }

    /// Adopts `map` (e.g. after a failover re-pointed a slot at a
    /// promoted replica), reconnecting any node whose address changed.
    pub fn install_map(&mut self, map: PartitionMap) -> ClientResult<()> {
        map.validate().map_err(ClientError::Protocol)?;
        if map.nodes.len() != self.nodes.len() {
            return Err(ClientError::Protocol(format!(
                "map names {} nodes, cluster has {}",
                map.nodes.len(),
                self.nodes.len()
            )));
        }
        let old = std::mem::replace(&mut self.map, map);
        for i in 0..self.nodes.len() {
            if self.map.nodes[i] != old.nodes[i] {
                self.reconnect(i)?;
            }
        }
        Ok(())
    }

    /// Routes one batch of tuples: partitions them per owning node,
    /// sends one binary `BATCH` frame per node (splitting at
    /// [`MAX_BATCH`]) in one round, and returns the total acknowledged
    /// tuple count. Frames rejected with `ERR moved` are re-partitioned
    /// against a refreshed map and resent; acked frames are never
    /// replayed. A tuple outside the universe refuses the whole batch
    /// before any frame is sent, with the message a node gives for it.
    /// Any other refusal returns the first error in node order, once
    /// every node's reply is read; the nodes that acknowledged their
    /// frames have applied them.
    pub fn batch(&mut self, tuples: &[Tuple]) -> ClientResult<u64> {
        if let Some((i, t)) = tuples.iter().enumerate().find(|(_, t)| t.object >= self.m) {
            return Err(ClientError::Server(format!(
                "tuple {}: object {} outside universe [0, {})",
                i + 1,
                t.object,
                self.m
            )));
        }
        let mut pending: Vec<Tuple> = tuples.to_vec();
        let mut acked = 0u64;
        for attempt in 0..MAX_MOVED_RETRIES {
            if pending.is_empty() {
                return Ok(acked);
            }
            let mut per_node: Vec<Vec<Tuple>> = vec![Vec::new(); self.nodes.len()];
            for &t in &pending {
                per_node[self.map.owner_of(t.object) as usize].push(t);
            }
            // (node, frame) in send order. Only the nodes a frame routes
            // to are flushed: an unreachable node's connection must not
            // fail batches that never route to it.
            let frames: Vec<(usize, &[Tuple])> = per_node
                .iter()
                .enumerate()
                .flat_map(|(i, part)| part.chunks(MAX_BATCH).map(move |frame| (i, frame)))
                .collect();
            let reqs: Vec<(usize, Request)> = frames
                .iter()
                .map(|&(i, frame)| (i, Request::batch(frame.to_vec())))
                .collect();
            let replies = self.round(&reqs, |reply| match reply {
                Response::Count(n) => Some(n),
                _ => None,
            });
            let mut rejected: Vec<Tuple> = Vec::new();
            let mut failed = None;
            for (&(_, frame), reply) in frames.iter().zip(replies) {
                match reply {
                    Ok(n) => acked += n,
                    Err(ClientError::Server(msg)) if parse_moved(&msg).is_some() => {
                        rejected.extend_from_slice(frame);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = failed {
                return Err(e);
            }
            pending = rejected;
            if !pending.is_empty() && attempt + 1 < MAX_MOVED_RETRIES {
                self.refresh_map()?;
                thread::sleep(MOVED_BACKOFF);
            }
        }
        exhausted("batch")
    }

    /// Global `MODE`: max frequency, ties to the smallest id — exactly
    /// the single-profile answer.
    pub fn mode(&mut self) -> ClientResult<Option<(u32, i64)>> {
        let pairs = all(scatter!(self, Request::Mode, Response::Mode(pair) => pair))?;
        Ok(pairs.into_iter().flatten().reduce(merge_mode))
    }

    /// Global `LEAST`: min frequency, ties to the smallest id.
    pub fn least(&mut self) -> ClientResult<Option<(u32, i64)>> {
        let pairs = all(scatter!(self, Request::Least, Response::Least(pair) => pair))?;
        Ok(pairs.into_iter().flatten().reduce(merge_least))
    }

    /// Global `TOPK`: merges each node's with-ties over-fetch.
    pub fn top_k(&mut self, k: u32) -> ClientResult<Vec<(u32, i64)>> {
        let lists = all(scatter!(self, Request::TopK(k), Response::TopK(entries) => entries))?;
        Ok(merge_top_k(lists.concat(), k))
    }

    /// Global `CAL`: the sum over disjoint partitions.
    pub fn count_at_least(&mut self, threshold: i64) -> ClientResult<u32> {
        let counts = all(scatter!(self, Request::Cal(threshold), Response::Cal(n) => n))?;
        Ok(counts.into_iter().sum())
    }

    /// Global lower median: one `MEDIAN` round brackets it, and summed
    /// `CAL` rounds bisect only inside the bracket
    /// ([`lower_median_of_parts`]).
    pub fn median(&mut self) -> ClientResult<Option<i64>> {
        let medians = all(scatter!(self, Request::Median, Response::Median(median) => median))?;
        // A node that owns no slice has no median.
        lower_median_of_parts(u64::from(self.m), medians.into_iter().flatten(), |v| {
            self.count_at_least(v).map(u64::from)
        })
    }

    /// Per-object frequency, routed to the slice owner with moved
    /// retries.
    pub fn freq(&mut self, id: u32) -> ClientResult<i64> {
        for _ in 0..MAX_MOVED_RETRIES {
            let owner = self.map.owner_of(id) as usize;
            match self.timed(owner, |n| n.freq(id)) {
                Ok(f) => return Ok(f),
                Err(ClientError::Server(msg)) if parse_moved(&msg).is_some() => {
                    self.refresh_map()?;
                    thread::sleep(MOVED_BACKOFF);
                }
                Err(e) => return Err(e),
            }
        }
        exhausted("freq")
    }

    /// One node's raw `STATS` payload.
    pub fn node_stats(&mut self, node: usize) -> ClientResult<String> {
        self.nodes[node].stats()
    }

    /// Closes every data connection politely, in one `QUIT` round.
    pub fn close(mut self) -> ClientResult<()> {
        all(scatter!(self, Request::Quit, Response::Bye => ()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprofile::SProfile;

    #[test]
    fn pair_merges_follow_the_profile_tie_breaks() {
        // Higher frequency wins regardless of order…
        assert_eq!(merge_mode((3, 5), (9, 4)), (3, 5));
        assert_eq!(merge_mode((9, 4), (3, 5)), (3, 5));
        // …ties go to the smaller id.
        assert_eq!(merge_mode((7, 5), (2, 5)), (2, 5));
        assert_eq!(merge_mode((2, 5), (7, 5)), (2, 5));
        assert_eq!(merge_least((3, -2), (9, 4)), (3, -2));
        assert_eq!(merge_least((9, 4), (3, -2)), (3, -2));
        assert_eq!(merge_least((7, 1), (2, 1)), (2, 1));
    }

    #[test]
    fn top_k_union_merge_matches_the_oracle() {
        // Partition a tie-heavy profile by `x % 3` and check that
        // merging per-partition with-ties over-fetches reproduces the
        // oracle's list for every k.
        let m = 32u32;
        let mut oracle = SProfile::new(m);
        for x in 0..m {
            for _ in 0..(x % 5) {
                oracle.add(x);
            }
        }
        for k in [1u32, 2, 3, 7, 16, 32] {
            let mut union = Vec::new();
            for part in 0..3u32 {
                // The node-side over-fetch: top k of the partition,
                // extended through ties at the cut.
                let mut owned: Vec<(u32, i64)> = (0..m)
                    .filter(|x| x % 3 == part)
                    .map(|x| (x, oracle.frequency(x)))
                    .collect();
                owned.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                if owned.len() > k as usize {
                    let cut = owned[k as usize - 1].1;
                    let end = owned.partition_point(|&(_, f)| f >= cut);
                    owned.truncate(end);
                }
                union.extend(owned);
            }
            assert_eq!(merge_top_k(union, k), oracle.top_k(k), "k={k}");
        }
    }
}
