//! Hash-partitioned multi-primary cluster on top of the server crate.
//!
//! A cluster is N independent primaries, each started with
//! [`ClusterConfig`](sprofile_server::ClusterConfig) so it owns a hash
//! slice of the object universe under a shared, versioned
//! [`PartitionMap`](sprofile_persist::PartitionMap). Nodes never talk
//! to each other outside of an explicit `MIGRATE`; all coordination
//! lives in the map and in this crate's client:
//!
//! - [`ClusterClient`] routes writes to slice owners (one binary
//!   `BATCH` frame per node), retries `ERR moved` rejections against a
//!   map refreshed over its data connections, and answers global
//!   queries by scatter-gathering the per-node answers (each over the
//!   node's owned slices) through exact-merge code — cluster answers
//!   are bit-identical to a single profile over the same stream. Every
//!   fan-out is one pipelined round: the request goes to every node
//!   before any reply is read, so it costs one network round trip
//!   whatever the node count.
//! - [`ChaosProxy`] is a TCP forwarder with a kill switch, used by the
//!   chaos suites to cut a node off mid-run (network partition) and
//!   heal it later.
//!
//! The merge rules (documented on [`router`]) mirror the tie-breaks of
//! the server's per-node queries, so `mode`/`least`/`top_k`/`median`/
//! `count_at_least` agree exactly with `sprofile::SProfile` — ties
//! included.

pub mod proxy;
pub mod router;

pub use proxy::ChaosProxy;
pub use router::{merge_least, merge_mode, merge_top_k, ClusterClient};
