//! The cluster partition map: which node owns which hash slice.
//!
//! A cluster (PR 8) splits the object universe `[0, m)` into `slices`
//! hash slices — `slice_of(x) = x % slices`, the same modulo placement
//! [`ShardedProfile`](https://docs.rs/) uses across threads — and
//! assigns every slice to one of `nodes` (primary addresses). The
//! assignment is versioned: every rebalance bumps `version`, and a
//! writer holding an older version gets a typed `ERR moved <ver>`
//! redirect instead of a silently misplaced write.
//!
//! Each node persists its current map in its WAL directory (`partmap`
//! marker, same temp + rename + directory-fsync discipline as the
//! [`epoch`](crate::read_epoch) marker) so a restart resumes with the
//! ownership it last acknowledged, not the bootstrap default.
//!
//! File format (little-endian):
//!
//! ```text
//! magic    8 bytes  "SPPMAPV\x01"
//! version  u64 LE
//! slices   u32 LE
//! nodes    u32 LE   node count
//!          nodes × { len: u16 LE, addr: len UTF-8 bytes }
//! owners   slices × u32 LE   node index owning each slice
//! crc      u32 LE   CRC-32 (IEEE) of everything before it
//! ```
//!
//! A missing or corrupt marker reads as `None` — the caller falls back
//! to the canonical bootstrap map ([`PartitionMap::round_robin`]),
//! which every node and router derives identically from the shared
//! `--cluster` topology flags.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use sprofile::crc32::crc32;

use crate::segment::fsync_dir;
use crate::PersistError;

const PMAP_MAGIC: [u8; 8] = *b"SPPMAPV\x01";

/// Name of the partition-map marker file inside a WAL directory.
pub const PARTITION_FILE: &str = "partmap";

/// A versioned assignment of hash slices to cluster nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    /// Monotonic map version; every rebalance bumps it by one.
    pub version: u64,
    /// Number of hash slices the universe is split into.
    pub slices: u32,
    /// Primary address of every node, indexed by node id.
    pub nodes: Vec<String>,
    /// `owners[s]` is the node index owning slice `s`; length `slices`.
    pub owners: Vec<u32>,
}

impl PartitionMap {
    /// The canonical bootstrap map: version 1, slice `s` owned by node
    /// `s % nodes.len()`. Every cluster participant derives this
    /// identically from the shared topology flags, so a fresh cluster
    /// needs no coordination to agree on ownership.
    pub fn round_robin(slices: u32, nodes: Vec<String>) -> PartitionMap {
        let n = nodes.len().max(1) as u32;
        PartitionMap {
            version: 1,
            slices,
            owners: (0..slices).map(|s| s % n).collect(),
            nodes,
        }
    }

    /// The hash slice object `x` belongs to.
    #[inline]
    pub fn slice_of(&self, x: u32) -> u32 {
        x % self.slices.max(1)
    }

    /// The node index owning object `x`.
    #[inline]
    pub fn owner_of(&self, x: u32) -> u32 {
        self.owners[self.slice_of(x) as usize]
    }

    /// Structural validity: at least one slice and one node, one owner
    /// per slice, every owner a real node index, and every address
    /// non-empty without the wire format's separator characters.
    pub fn validate(&self) -> Result<(), String> {
        if self.slices == 0 {
            return Err("partition map needs at least one slice".into());
        }
        if self.nodes.is_empty() {
            return Err("partition map needs at least one node".into());
        }
        if self.owners.len() != self.slices as usize {
            return Err(format!(
                "partition map has {} owner(s) for {} slice(s)",
                self.owners.len(),
                self.slices
            ));
        }
        if let Some(bad) = self
            .owners
            .iter()
            .find(|&&o| o as usize >= self.nodes.len())
        {
            return Err(format!(
                "owner index {bad} out of range ({} node(s))",
                self.nodes.len()
            ));
        }
        for addr in &self.nodes {
            if addr.is_empty() || addr.contains([',', ' ', '\t', '\r', '\n']) {
                return Err(format!("bad node address {addr:?}"));
            }
        }
        Ok(())
    }

    /// The single-line wire encoding (`MAP`/`MAPSET` payload):
    /// `<version> <slices> <nodes_csv> <owners_csv>`.
    pub fn to_wire(&self) -> String {
        let owners: Vec<String> = self.owners.iter().map(|o| o.to_string()).collect();
        format!(
            "{} {} {} {}",
            self.version,
            self.slices,
            self.nodes.join(","),
            owners.join(",")
        )
    }

    /// Parses [`to_wire`](Self::to_wire) output, validating the result.
    pub fn from_wire(s: &str) -> Result<PartitionMap, String> {
        let mut words = s.split_ascii_whitespace();
        let mut next = |what: &str| words.next().ok_or_else(|| format!("missing {what}"));
        let version: u64 = next("version")?
            .parse()
            .map_err(|_| "bad map version".to_string())?;
        let slices: u32 = next("slices")?
            .parse()
            .map_err(|_| "bad slice count".to_string())?;
        let nodes: Vec<String> = next("nodes")?.split(',').map(str::to_owned).collect();
        let owners = next("owners")?
            .split(',')
            .map(|w| w.parse::<u32>().map_err(|_| "bad owner index".to_string()))
            .collect::<Result<Vec<u32>, String>>()?;
        if words.next().is_some() {
            return Err("trailing words after partition map".into());
        }
        let map = PartitionMap {
            version,
            slices,
            nodes,
            owners,
        };
        map.validate()?;
        Ok(map)
    }
}

/// Reads the durable partition-map marker in `dir`. Missing, short, or
/// corrupt markers read as `None` (fall back to the bootstrap map).
pub fn read_partition_map(dir: &Path) -> Option<PartitionMap> {
    let bytes = fs::read(dir.join(PARTITION_FILE)).ok()?;
    if bytes.len() < PMAP_MAGIC.len() + 4 || bytes[..8] != PMAP_MAGIC {
        return None;
    }
    let crc_at = bytes.len() - 4;
    let crc = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4 bytes"));
    if crc32(&bytes[..crc_at]) != crc {
        return None;
    }
    let mut rest = &bytes[8..crc_at];
    let mut take = |n: usize| -> Option<&[u8]> {
        let (head, tail) = rest.split_at_checked(n)?;
        rest = tail;
        Some(head)
    };
    let version = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let slices = u32::from_le_bytes(take(4)?.try_into().ok()?);
    let node_count = u32::from_le_bytes(take(4)?.try_into().ok()?);
    // Bound before allocating: a corrupt count must not OOM the reader.
    if slices > 1 << 20 || node_count > 1 << 16 {
        return None;
    }
    let mut nodes = Vec::with_capacity(node_count as usize);
    for _ in 0..node_count {
        let len = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
        nodes.push(String::from_utf8(take(len)?.to_vec()).ok()?);
    }
    let mut owners = Vec::with_capacity(slices as usize);
    for _ in 0..slices {
        owners.push(u32::from_le_bytes(take(4)?.try_into().ok()?));
    }
    if !rest.is_empty() {
        return None;
    }
    let map = PartitionMap {
        version,
        slices,
        nodes,
        owners,
    };
    map.validate().ok()?;
    Some(map)
}

/// Durably writes the partition-map marker for `dir` (created if
/// absent): temp file + fsync + rename + directory fsync, so every
/// crash point leaves either the old marker or the new one.
pub fn write_partition_map(dir: &Path, map: &PartitionMap) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(32 + map.nodes.len() * 24 + map.owners.len() * 4);
    bytes.extend_from_slice(&PMAP_MAGIC);
    bytes.extend_from_slice(&map.version.to_le_bytes());
    bytes.extend_from_slice(&map.slices.to_le_bytes());
    bytes.extend_from_slice(&(map.nodes.len() as u32).to_le_bytes());
    for addr in &map.nodes {
        bytes.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        bytes.extend_from_slice(addr.as_bytes());
    }
    for &o in &map.owners {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let final_path = dir.join(PARTITION_FILE);
    let tmp_path = dir.join("partmap.tmp");
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    fsync_dir(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PartitionMap {
        PartitionMap {
            version: 7,
            slices: 5,
            nodes: vec!["127.0.0.1:7979".into(), "127.0.0.1:7980".into()],
            owners: vec![0, 1, 0, 1, 1],
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sprofile-pmap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_robin_is_canonical() {
        let map = PartitionMap::round_robin(8, vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        assert_eq!(map.version, 1);
        assert_eq!(map.owners, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        map.validate().unwrap();
        // Placement follows the same modulo rule as ShardedProfile.
        assert_eq!(map.slice_of(13), 13 % 8);
        assert_eq!(map.owner_of(13), (13 % 8) % 3);
    }

    #[test]
    fn wire_round_trips_and_rejects_garbage() {
        let map = sample();
        let wire = map.to_wire();
        assert_eq!(wire, "7 5 127.0.0.1:7979,127.0.0.1:7980 0,1,0,1,1");
        assert_eq!(PartitionMap::from_wire(&wire).unwrap(), map);
        for bad in [
            "",
            "7",
            "7 5",
            "7 5 a:1",
            "7 5 a:1 0,0,0,0,9",      // owner out of range
            "7 5 a:1 0,0,0,0",        // owner count != slices
            "7 zero a:1 0,0,0,0,0",   // non-numeric
            "7 5 a:1 0,0,0,0,0 tail", // trailing junk
        ] {
            assert!(PartitionMap::from_wire(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn marker_round_trips_and_corruption_reads_as_none() {
        let dir = temp_dir("roundtrip");
        assert_eq!(read_partition_map(&dir), None, "missing marker");
        let map = sample();
        write_partition_map(&dir, &map).unwrap();
        assert_eq!(read_partition_map(&dir), Some(map.clone()));
        // Newer version overwrites in place.
        let mut next = map.clone();
        next.version = 8;
        next.owners[0] = 1;
        write_partition_map(&dir, &next).unwrap();
        assert_eq!(read_partition_map(&dir), Some(next));
        // Any bit flip fails the CRC and falls back to None.
        let path = dir.join(PARTITION_FILE);
        let mut bytes = fs::read(&path).unwrap();
        for byte in 0..bytes.len() {
            bytes[byte] ^= 1;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_partition_map(&dir), None, "flip at {byte}");
            bytes[byte] ^= 1;
        }
        fs::write(&path, b"short").unwrap();
        assert_eq!(read_partition_map(&dir), None, "truncated");
        fs::remove_dir_all(&dir).ok();
    }
}
