//! Crash-recovery correctness, property-style (the PR's acceptance
//! criterion): for random op sequences appended to the WAL in random
//! batches — with random checkpoints and segment rotations along the way
//! — a crash injected at a **random byte offset** of the log tail
//! (including mid-record and even mid-segment-header) recovers to
//! exactly an oracle replay of the durable prefix: every record whose
//! bytes fully precede the cut, or that a checkpoint already covers.
//! The recovered state is checked both as the raw [`SProfile`] and
//! through the server's engine resumed from it, at 3 shards and at 1.

use std::fs;
use std::path::{Path, PathBuf};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sprofile::{verify::derive_frequencies, SProfile, Tuple};
use sprofile_persist::{is_segment_file, recover, SyncPolicy, Wal, WalOptions};
use sprofile_server::BackendKind;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sprofile-walprop-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The segment file with the highest first-LSN currently in `dir`.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter_map(|e| {
            let name = e.file_name();
            name.to_str()
                .and_then(is_segment_file)
                .map(|lsn| (lsn, e.path()))
        })
        .collect();
    segs.sort_unstable_by_key(|&(lsn, _)| lsn);
    segs.pop().expect("at least one segment").1
}

/// Copies every file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn crash_at_any_offset_recovers_exactly_the_durable_prefix() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2019);
    for case in 0..40 {
        let m: u32 = rng.gen_range(1..64);
        let dir = temp_dir(&format!("case{case}"));
        let crash_dir = temp_dir(&format!("case{case}-crash"));
        let opts = WalOptions {
            dir: dir.clone(),
            sync: SyncPolicy::Never,
            // Small segments so many cases span several of them.
            segment_bytes: rng.gen_range(96..512),
            keep_checkpoints: 2,
            ..WalOptions::default()
        };
        let mut wal = Wal::open(opts, 1).unwrap();

        // Append random batches, remembering each record's tuples and
        // where its bytes end (append always write-flushes, so file
        // metadata is exact). Occasionally checkpoint.
        let mut records: Vec<(PathBuf, u64, Vec<Tuple>)> = Vec::new();
        let mut cp_lsn = 0u64; // highest LSN a checkpoint covers
        let n_records = rng.gen_range(1..40);
        for _ in 0..n_records {
            let batch: Vec<Tuple> = (0..rng.gen_range(0..24))
                .map(|_| Tuple {
                    object: rng.gen_range(0..m),
                    is_add: rng.gen_bool(0.7),
                })
                .collect();
            wal.append(&batch).unwrap();
            let seg = last_segment(&dir);
            let end = fs::metadata(&seg).unwrap().len();
            records.push((seg, end, batch));
            if rng.gen_bool(0.15) {
                let mut state = SProfile::new(m);
                for (_, _, tuples) in &records {
                    state.apply_batch(tuples);
                }
                wal.checkpoint(&state.to_snapshot_bytes()).unwrap();
                cp_lsn = records.len() as u64;
            }
        }
        wal.sync().unwrap();
        drop(wal);

        // Inject the crash: cut the tail segment at a uniformly random
        // offset (0 = even its header is gone; len = nothing lost), and
        // sometimes smear random garbage after the cut, like a
        // preallocated file would hold.
        let target = last_segment(&dir);
        let full = fs::read(&target).unwrap();
        let cut = rng.gen_range(0..=full.len());
        copy_dir(&dir, &crash_dir);
        let mut torn = full[..cut].to_vec();
        if rng.gen_bool(0.3) {
            let garbage = rng.gen_range(1..64);
            for _ in 0..garbage {
                torn.push(rng.gen_range(0..=255u32) as u8);
            }
        }
        fs::write(crash_dir.join(target.file_name().unwrap()), &torn).unwrap();

        // The durable prefix: records outside the tail segment are
        // complete on disk; inside it, those whose bytes fully precede
        // the cut; and everything a checkpoint covers regardless.
        let wal_lsn = records
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (seg, end, _))| *seg != target || *end <= cut as u64)
            .map(|(i, _)| i as u64 + 1)
            .unwrap_or(0);
        let durable = wal_lsn.max(cp_lsn);
        let mut oracle = SProfile::new(m);
        for (_, _, tuples) in &records[..durable as usize] {
            oracle.apply_batch(tuples);
        }

        let recovered = recover(&crash_dir, m).unwrap_or_else(|e| {
            panic!(
                "case {case}: recovery failed (cut {cut}/{}): {e}",
                full.len()
            )
        });
        assert_eq!(
            derive_frequencies(&recovered.profile),
            derive_frequencies(&oracle),
            "case {case}: cut {cut}/{} durable {durable}/{} cp {cp_lsn}",
            full.len(),
            records.len(),
        );
        assert_eq!(recovered.next_lsn, durable.max(cp_lsn) + 1, "case {case}");

        // Both server shapes resume from the recovered profile and
        // answer exactly like the oracle.
        for kind in [
            BackendKind::Sharded { shards: 3 },
            BackendKind::Sharded { shards: 1 },
        ] {
            let backend = kind.recover(&recovered.profile);
            for x in 0..m {
                assert_eq!(
                    backend.frequency(x),
                    oracle.frequency(x),
                    "case {case} {kind:?} object {x}"
                );
            }
            assert_eq!(
                backend.mode(),
                oracle.mode().map(|e| {
                    let obj = oracle.mode_objects().iter().copied().min().unwrap();
                    (obj, e.frequency)
                }),
                "case {case} {kind:?}"
            );
            assert_eq!(backend.median(), oracle.median(), "case {case} {kind:?}");
        }

        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&crash_dir).ok();
    }
}

#[test]
fn double_crash_then_resume_still_converges() {
    // Crash, recover, resume appending, crash again mid-record: the
    // second recovery must chain across the first crash's torn boundary.
    let mut rng = StdRng::seed_from_u64(77);
    let m = 16u32;
    let dir = temp_dir("double");
    let opts = || WalOptions {
        dir: dir.clone(),
        sync: SyncPolicy::Never,
        segment_bytes: 1 << 20,
        keep_checkpoints: 2,
        ..WalOptions::default()
    };
    let mut wal = Wal::open(opts(), 1).unwrap();
    let mut oracle = SProfile::new(m);
    for _ in 0..8 {
        let t = Tuple {
            object: rng.gen_range(0..m),
            is_add: true,
        };
        oracle.apply(t);
        wal.append(&[t]).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    // Crash 1: lose the 8th record.
    let seg = last_segment(&dir);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
    let r1 = recover(&dir, m).unwrap();
    assert!(r1.torn_tail);
    assert_eq!(r1.replayed_records, 7);
    // Resume and append two more.
    let mut wal = Wal::open(opts(), r1.next_lsn).unwrap();
    for _ in 0..2 {
        let t = Tuple {
            object: rng.gen_range(0..m),
            is_add: false,
        };
        wal.append(&[t]).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    // Crash 2: tear the new segment's tail, losing the last record.
    let seg = last_segment(&dir);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 4]).unwrap();
    let r2 = recover(&dir, m).unwrap();
    assert!(r2.torn_tail);
    assert_eq!(r2.replayed_records, 8); // 7 from run 1 + 1 surviving
    assert_eq!(r2.next_lsn, 9);
    fs::remove_dir_all(&dir).ok();
}
